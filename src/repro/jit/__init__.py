"""The tiered JIT virtual machine."""

from .cache import CacheStats, CompilationCache, default_cache_dir
from .client import CompileReply, ServiceClient
from .compiler import CompilationResult, Compiler
from .listeners import VMListener
from .options import CompilerConfig, TierSpec
from .server import CompileService
from .vm import VM

__all__ = ["CacheStats", "CompilationCache", "CompilationResult",
           "CompileReply", "CompileService", "Compiler", "CompilerConfig",
           "ServiceClient", "TierSpec", "VM", "VMListener",
           "default_cache_dir"]
