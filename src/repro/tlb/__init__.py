"""TLB and page-walk simulation.

Trace-driven model of the translation hardware the paper measures with
Skylake performance counters: per-page-size L1 TLBs, a shared L2 (with a
separate 1GB section), and a page-walk cost model including page-walk caches
and two-dimensional (nested) walks under virtualization.
"""

from repro.tlb.tlb import SetAssocTLB
from repro.tlb.hierarchy import TLBHierarchy, TranslationStats
from repro.tlb.nested import NestedTranslationUnit

__all__ = [
    "SetAssocTLB",
    "TLBHierarchy",
    "TranslationStats",
    "NestedTranslationUnit",
]
