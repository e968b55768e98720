"""Data-locality-aware task scheduling on heterogeneous clusters:
predictive modeling, balanced block placement, ant-colony assignment, and
a deterministic runtime simulator with task migration."""

__version__ = "0.1.0"
