"""HDFS substrate: blocks, replica placement, locality indexes.

Stock Hadoop runs store 64/128 MB blocks, one map task per block.  FlexMap
runs store 8 MB *block units* (BUs) from which Late Task Binding assembles
variable-size input splits at dispatch time.
"""

from repro.hdfs.block import Block
from repro.hdfs.locality import LocalityIndex
from repro.hdfs.namenode import NameNode
from repro.hdfs.placement import RandomPlacement

__all__ = [
    "Block",
    "LocalityIndex",
    "NameNode",
    "RandomPlacement",
]
