"""NEEDLETAIL substrate: bitmap indexes, row store, engine."""

from repro.needletail.bitvector import BitVector
from repro.needletail.engine import IndexedGroup, NeedletailEngine
from repro.needletail.hierarchical import HierarchicalBitmap
from repro.needletail.index import BitmapIndex
from repro.needletail.rle import RunLengthBitmap
from repro.needletail.table import Column, Table

__all__ = [
    "BitVector",
    "IndexedGroup",
    "NeedletailEngine",
    "HierarchicalBitmap",
    "BitmapIndex",
    "RunLengthBitmap",
    "Column",
    "Table",
]
