"""The tiered JIT virtual machine."""

from .cache import CacheStats, CompilationCache, default_cache_dir
from .compiler import CompilationResult, Compiler
from .listeners import VMListener
from .options import ESCAPE_TIERS, CompilerConfig
from .vm import VM

__all__ = ["CacheStats", "CompilationCache", "CompilationResult",
           "Compiler", "CompilerConfig", "ESCAPE_TIERS", "VM", "VMListener",
           "default_cache_dir"]
