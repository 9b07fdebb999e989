"""servicecut: microservice candidate extraction via spectral graph
partitioning of fused call/performance feature graphs."""

__version__ = "0.1.0"
