"""Cluster substrate: the Cluster Controller and predeployed jobs."""

from .controller import Cluster, ClusterController

__all__ = ["Cluster", "ClusterController"]
