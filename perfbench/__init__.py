"""Host-time benchmark of the serving simulator (see ``perfbench/README.md``)."""
