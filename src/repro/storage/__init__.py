"""Storage substrate: LSM trees, B+/R-tree indexes, partitioned datasets."""

from .btree import BPlusTree
from .checkpoint import CheckpointStore, PartitionCursor, RunCheckpoint
from .component import SortedRunComponent, merge_components
from .dataset import Dataset, ReferenceSnapshot, hash_partition
from .index import IndexKind, SecondaryIndex
from .lsm import LSMStats, LSMTree
from .memtable import TOMBSTONE, MemTable
from .rtree import RTree, mbr_of

__all__ = [
    "BPlusTree",
    "CheckpointStore",
    "Dataset",
    "PartitionCursor",
    "RunCheckpoint",
    "IndexKind",
    "LSMStats",
    "LSMTree",
    "MemTable",
    "RTree",
    "ReferenceSnapshot",
    "SecondaryIndex",
    "SortedRunComponent",
    "TOMBSTONE",
    "hash_partition",
    "mbr_of",
    "merge_components",
]
