"""The tiered JIT virtual machine."""

from .cache import CacheStats, CompilationCache, default_cache_dir
from .compiler import CompilationResult, Compiler
from .listeners import VMListener
from .options import CompilerConfig, TierSpec
from .vm import VM

__all__ = ["CacheStats", "CompilationCache", "CompilationResult",
           "Compiler", "CompilerConfig", "TierSpec", "VM", "VMListener",
           "default_cache_dir"]
