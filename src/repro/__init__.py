"""PyParC: a Python reproduction of "ParC#: Parallel Computing with C# in
.Net" (Ferreira & Sobral, PACT 2005).

The package implements the paper's system — the SCOOPP parallel-object
runtime — and every substrate it runs on or is compared against:

================  ==========================================================
``repro.core``    SCOOPP/ParC#: ``@parallel`` classes, preprocessor, proxy
                  objects, object managers, grain-size adaptation
``repro.cluster`` nodes, factories, placement policies
``repro.remoting``.Net remoting analog (channels, well-known objects,
                  transparent proxies, async delegates)
``repro.rmi``     Java RMI analog (registry, rmic stub generator, checked
                  RemoteException discipline)
``repro.mpi``     MPI analog (ranks, send/recv, collectives, pack/unpack)
``repro.nio``     java.nio analog (ByteBuffer, selector channels)
``repro.serialization``  graph-preserving binary + SOAP formatters
``repro.perfmodel``      paper-calibrated platform cost models
``repro.benchlib``       drivers regenerating the paper's figures
``repro.apps``    the evaluation workloads (JGF ray tracer, primes)
================  ==========================================================

Quickstart::

    import repro.core as parc

    @parc.parallel
    class Worker:
        def __init__(self):
            self.seen = []
        def push(self, item):        # async: no return value
            self.seen.append(item)
        def size(self):              # sync: returns a value
            return len(self.seen)

    parc.init(parc.ParcConfig(nodes=4))
    try:
        worker = parc.new(Worker)
        worker.push(1); worker.push(2)
        assert worker.size() == 2
    finally:
        parc.shutdown()
"""

from repro.errors import ParcError

__version__ = "1.0.0"

__all__ = ["ParcError", "__version__"]
