"""The pipeline benchmark: five workloads, end-to-end metrics, layer books.

``workloads`` builds and drives the program through its public API,
``tracing`` records spans around calls into each layer from outside,
``layers`` turns spans and standalone loops into per-layer metrics,
``compare`` judges two recorded sets, and ``cli`` is the command line.
"""
