"""Build C units into cached shared objects and load them with :mod:`ctypes`.

The compiled parts of the simulator (the jit engine kernel in
:mod:`repro.core.jitted` and the trace synthesizer in
:mod:`repro.trace.synth.native`) are plain C compiled by the system
toolchain.  This module is the one place that knows how:

- the compiler is the first of ``cc``, ``gcc`` and ``clang`` on ``PATH``;
- every unit compiles with :data:`COMPILE_FLAGS` (``-O1 -fPIC
  -ffp-contract=off``) and links with :data:`LINK_FLAGS` (``-shared``).
  ``-O1`` compiles in about half the time of ``-O2``, which every cold
  set-up pays; the kernel runs as fast at ``-O1``, and the synthesizer's
  somewhat slower run costs a cold sweep less than the build time it
  saves.  ``-ffp-contract=off`` forbids fused multiply-add contraction,
  and nothing enables fast-math, so every ``double`` operation rounds
  exactly like the CPython interpreter's, which is what makes the
  compiled units bit-identical to their Python specifications;
- a build is three toolchain calls, one per phase: compile the source to
  assembly (``-S``), assemble it (``-c``), link the shared object.  Each
  writes a file named under the build's private stem, so the compiler
  driver never creates, truncates and deletes temporary files of its
  own; on an ext4 host those cost about 50 ms each, more than half of a
  one-call build;
- each unit's shared object is named by a hash of both flag tuples and
  its source and cached under :func:`cache_dir` (``REPRO_JIT_CACHE_DIR``,
  default ``.repro-cache/jit``), so editing one unit stales only that
  unit;
- a build compiles a per-process, per-thread copy of the source, so a
  concurrent builder never reads a file another one is rewriting, and
  removes its intermediates whatever happens.  The object and a
  ``.sha256`` sidecar of its bytes are published as two
  :class:`~repro.util.filestore.EntryDir` entries (atomic writes, and the
  first write of a process sweeps ``*.tmp`` orphans a crashed writer
  left).  An object whose sidecar is missing or does not match (a
  truncated or corrupt file) is rebuilt instead of loaded: ``dlopen`` of
  a truncated object can kill the process with ``SIGBUS``.

A unit that cannot be built (no compiler, a compiler error) is reported
once, through :func:`load_or_warn`, with one warning naming the cause.

Python reaches a unit's structs through :func:`struct_types`, which reads
every ``typedef struct { ... } Name;`` of the source text :func:`load`
compiles into a ``ctypes.Structure``: the typedef is the only declaration
of a struct, so there is no hand-kept mirror that could drift from it.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import re
import shutil
import subprocess
import threading
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Tuple, Type, TypeVar

from repro.envvars import REPRO_CACHE_DIR, REPRO_JIT_CACHE_DIR
from repro.util import clock, filestore

T = TypeVar("T")

#: the compile flags of every unit (see the module docstring).
COMPILE_FLAGS = ("-O1", "-fPIC", "-ffp-contract=off")
#: the link flags of every unit.
LINK_FLAGS = ("-shared",)


def cache_dir() -> Path:
    """Directory holding compiled units (``REPRO_JIT_CACHE_DIR``)."""
    explicit = os.environ.get(REPRO_JIT_CACHE_DIR, "")
    if explicit:
        return Path(explicit)
    base = os.environ.get(REPRO_CACHE_DIR, "") or ".repro-cache"
    return Path(base) / "jit"


def source_hash(source: str) -> str:
    """Hash naming a unit's cached shared object (and its CI cache key):
    the compile and link flags and the source."""
    text = " ".join(COMPILE_FLAGS) + "\n" + " ".join(LINK_FLAGS) + "\n" + source
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def compiler() -> Optional[str]:
    """Path of the C compiler, or None when there is none on ``PATH``."""
    return shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")


#: the cached objects and their ``.sha256`` sidecars, one pair per unit
#: key ``<stem>_<source hash>``, published atomically.
_OBJECTS = filestore.EntryDir(cache_dir, ".so")
_SIDECARS = filestore.EntryDir(cache_dir, ".so.sha256")


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _verified(so_path: Path) -> bool:
    """Is *so_path* present with a sidecar matching its bytes?"""
    sidecar = so_path.with_name(so_path.name + ".sha256")
    try:
        return sidecar.read_text().strip() == _digest(so_path)
    except OSError:
        return False


def load(stem: str, source: str) -> Tuple[ctypes.CDLL, float]:
    """Load *source*'s shared object, compiling it first when needed.

    The object is ``<stem>_<source hash>.so`` under :func:`cache_dir`.
    Returns the library and the seconds this call spent compiling (0.0
    when a verified object was already cached).  Raises ``RuntimeError``
    when there is no compiler, the compiler fails or the cache directory
    is unwritable.
    """
    key = f"{stem}_{source_hash(source)}"
    so_path = _OBJECTS.path(key)
    seconds = 0.0
    if not _verified(so_path):
        cc = compiler()
        if cc is None:
            raise RuntimeError("no C compiler (cc/gcc/clang) on PATH")
        directory = so_path.parent
        # Every file a build writes before publishing is private to this
        # process and thread, so concurrent builders race benignly: each
        # publishes a complete object and sidecar, and a mismatched pair
        # only forces a rebuild.
        tmp_stem = f".{key}.{os.getpid()}.{threading.get_ident()}"
        c_path, s_path, o_path, built = (
            directory / f"{tmp_stem}{ext}" for ext in (".c", ".s", ".o", ".so")
        )
        # One toolchain call per phase, each writing a file named here:
        # the driver then makes no temporary file of its own.
        steps = (
            [cc, *COMPILE_FLAGS, "-S", "-o", str(s_path), str(c_path)],
            [cc, "-c", "-o", str(o_path), str(s_path)],
            [cc, *LINK_FLAGS, "-o", str(built), str(o_path)],
        )
        try:
            directory.mkdir(parents=True, exist_ok=True)
            c_path.write_text(source)
        except OSError as exc:
            raise RuntimeError(f"cannot write the jit cache {directory}: {exc}") from exc
        # Wall-clock times the one-off toolchain run for the compile-cost
        # report; it never reaches a simulated result.
        started = clock.perf_counter()
        try:
            for argv in steps:
                subprocess.run(argv, check=True, capture_output=True, text=True)
            seconds = clock.perf_counter() - started
            blob = built.read_bytes()
        except subprocess.CalledProcessError as exc:
            raise RuntimeError(f"{stem} compilation failed: {exc.stderr}") from exc
        finally:
            for path in (c_path, s_path, o_path, built):
                path.unlink(missing_ok=True)
        digest = hashlib.sha256(blob).hexdigest() + "\n"
        if not (
            _OBJECTS.write(key, blob) and _SIDECARS.write(key, digest.encode("ascii"))
        ):
            raise RuntimeError(f"cannot write the jit cache {directory}")
    return ctypes.CDLL(str(so_path)), seconds


def load_or_warn(
    build: Callable[[], T], logger: logging.Logger, what: str, fallback: str
) -> Optional[T]:
    """``build()``, or None after one warning naming why it failed."""
    try:
        return build()
    except Exception as exc:
        logger.warning("%s unavailable (%s); %s", what, exc, fallback)
        return None


#: C types :func:`struct_types` reads -> their ctypes type (``void`` is
#: None: a function returning nothing, or ``c_void_p`` behind a pointer).
C_TYPES = {
    "long long": ctypes.c_longlong,
    "unsigned long long": ctypes.c_ulonglong,
    "int64_t": ctypes.c_int64,
    "uint64_t": ctypes.c_uint64,
    "int32_t": ctypes.c_int32,
    "int8_t": ctypes.c_int8,
    "int": ctypes.c_int,
    "signed char": ctypes.c_byte,
    "unsigned char": ctypes.c_ubyte,
    "double": ctypes.c_double,
    "void": None,
}

_COMMENT = re.compile(r"/\*.*?\*/|//[^\n]*", re.S)
_DEFINE = re.compile(r"^#define\s+(\w+)\s+(\d+)\s*$", re.M)
_TYPEDEF = re.compile(r"typedef\s+struct\s*\{([^{}]*)\}\s*(\w+)\s*;")
#: ``ret (*name)(params)``
_FUNCTION = re.compile(r"(.+?)\(\s*\*\s*(\w+)\s*\)\s*\((.*)\)")
#: ``**name[N]``: pointer depth, name and an optional array length.
_DECLARATOR = r"(\**)\s*(\w+)\s*(?:\[\s*(\w+)\s*\])?"


def struct_types(source: str) -> Dict[str, Type[ctypes.Structure]]:
    """Every ``typedef struct { ... } Name;`` of *source* as a
    ``ctypes.Structure``, in source order, by name.

    A field is a scalar of :data:`C_TYPES`, an earlier struct of *source*
    embedded by name, a pointer to either, an array whose length is a
    literal or a ``#define`` of *source*, or a function pointer; ``const``
    is dropped and comma-separated declarators share their type.  Any
    other field raises ``ValueError`` naming ``Struct.field``.
    """
    text = _COMMENT.sub(" ", source)
    lengths = {name: int(value) for name, value in _DEFINE.findall(text)}
    structs: Dict[str, Type[ctypes.Structure]] = {}

    def resolve(base: str, stars: str, where: str):
        if base in C_TYPES:
            ctype = C_TYPES[base]
        elif base in structs:
            ctype = structs[base]
        else:
            raise ValueError(f"{where}: C type {base!r} is not one the struct reader knows")
        if ctype is None and stars:
            ctype, stars = ctypes.c_void_p, stars[1:]
        for _ in stars:
            ctype = ctypes.POINTER(ctype)
        return ctype

    def declared(decl: str, where: str):
        """(name, ctype) of every declarator of one declaration."""
        function = _FUNCTION.fullmatch(decl)
        if function:
            result, name, params = function.groups()
            where = f"{where}.{name}"
            args = [] if params in ("", "void") else [
                declared(param.strip(), where)[0][1] for param in params.split(",")
            ]
            return [(name, ctypes.CFUNCTYPE(resolve(result.strip(), "", where), *args))]
        head, *rest = decl.split(",")
        match = re.fullmatch(r"(.+?)\s*" + _DECLARATOR, head)
        if match is None:
            raise ValueError(f"{where}: cannot read the declaration {decl!r}")
        base = match.group(1)
        fields = []
        for part in [head[match.end(1):], *rest]:
            declarator = re.fullmatch(_DECLARATOR, part.strip())
            if declarator is None:
                raise ValueError(f"{where}: cannot read the declarator {part.strip()!r}")
            stars, name, length = declarator.groups()
            ctype = resolve(base, stars, f"{where}.{name}")
            if ctype is None:
                raise ValueError(f"{where}.{name}: a field cannot be void")
            if length is not None:
                count = int(length) if length.isdigit() else lengths.get(length)
                if count is None:
                    raise ValueError(f"{where}.{name}: unknown array length {length!r}")
                ctype = ctype * count
            fields.append((name, ctype))
        return fields

    for body, struct in _TYPEDEF.findall(text):
        fields = []
        for decl in body.split(";"):
            decl = " ".join(re.sub(r"\bconst\b", " ", decl).split())
            if decl:
                fields.extend(declared(decl, struct))
        structs[struct] = type(struct, (ctypes.Structure,), {"_fields_": fields})
    return structs


def struct_fields(struct: Type[ctypes.Structure]) -> Sequence[Tuple[str, type]]:
    """``(name, ctypes type)`` of each field of a :func:`struct_types`
    struct, in declaration order."""
    return struct._fields_
