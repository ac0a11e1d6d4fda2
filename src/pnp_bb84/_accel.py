"""Backend marker read by provenance records: the kernels run as plain Python."""

NUMBA_ACTIVE = False
