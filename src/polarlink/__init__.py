"""Polar multiplicities of hypersurface germs and rank bounds for the
cohomology of their real links."""
