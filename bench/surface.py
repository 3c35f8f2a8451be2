#!/usr/bin/env python3
"""List the exports of lib/ that no program names.

Run from the repository root:

    python3 bench/surface.py            # print every hit, one a line
    python3 bench/surface.py --check    # compare the hits with bench/surface.keep

A *program* is any .ml file under lib/, bin/, bench/, perfbench/ or
examples/; test/ is not one. An *export* is a top-level `val` of a
lib/**/*.mli, outside `module type` blocks. An export is a hit when no
program other than its own module names it, through any of:

  - the full path `Flux_lib.Mod.name`;
  - an alias `module X = Flux_lib.Mod` (or `let module X = ... in`), then
    `X.name`;
  - `open Flux_lib`, then `Mod.name`;
  - inside the export's own library, `Mod.name` or an alias of `Mod`;
  - a local open `X.( ... )` or `let open X in` of any of the above,
    which counts every bare identifier after it as a use.

Comments and string literals are not uses. A hit prints as
`Flux_lib.Mod.name`. Each line of bench/surface.keep is such a name,
then the guarantee of program code a test states through it; `--check`
exits 1 when a hit is missing from the keep file, a keep line names
something that is no longer a hit, or a keep line's guarantee is marked
`deferred:` (a guarantee of code no program runs keeps nothing).
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KEEP = os.path.join(ROOT, "bench", "surface.keep")
PROGRAM_DIRS = ["lib", "bin", "bench", "perfbench", "examples"]
IDENT = r"[a-z_][A-Za-z0-9_']*"
MODNAME = r"[A-Z][A-Za-z0-9_']*"


def strip(src):
    """Blank out comments (nested) and string/char literals, keep offsets."""
    out = []
    i, n, depth = 0, len(src), 0
    while i < n:
        c = src[i]
        if src.startswith("(*", i):
            depth += 1
            out.append("  ")
            i += 2
        elif depth > 0 and src.startswith("*)", i):
            depth -= 1
            out.append("  ")
            i += 2
        elif c == '"':
            j = i + 1
            while j < n and src[j] != '"':
                j += 2 if src[j] == "\\" else 1
            out.append(" " * (j + 1 - i))
            i = j + 1
        elif depth == 0 and c == "'" and re.match(r"'(\\.|[^\\'])'", src[i:i + 4]):
            m = re.match(r"'(\\.|[^\\'])'", src[i:i + 4])
            out.append(" " * len(m.group(0)))
            i += len(m.group(0))
        else:
            out.append(" " if depth > 0 and c != "\n" else c)
            i += 1
    return "".join(out)


def libraries():
    """Map each lib/ directory to its library's module name (Flux_x)."""
    libs = {}
    for d in sorted(os.listdir(os.path.join(ROOT, "lib"))):
        dune = os.path.join(ROOT, "lib", d, "dune")
        if os.path.isfile(dune):
            m = re.search(r"\(name\s+(\w+)\)", open(dune).read())
            if m:
                libs[d] = m.group(1).capitalize()
    return libs


def exports(libs):
    """Yield (lib, Mod, name) for each top-level val of lib/**/*.mli."""
    for d, lib in libs.items():
        for f in sorted(os.listdir(os.path.join(ROOT, "lib", d))):
            if not f.endswith(".mli"):
                continue
            mod = f[:-4].capitalize()
            src = strip(open(os.path.join(ROOT, "lib", d, f)).read())
            depth = 0
            for line in src.split("\n"):
                if re.match(r"\s*module\s+type\b", line):
                    depth += 1
                elif depth > 0 and re.match(r"\s*end\b", line):
                    depth -= 1
                elif depth == 0:
                    m = re.match(r"val\s+(" + IDENT + r")", line)
                    if m:
                        yield lib, mod, m.group(1)


def programs(libs):
    """Yield (lib or None, Mod, stripped source) for each program .ml."""
    for top in PROGRAM_DIRS:
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = [x for x in dirnames if not x.startswith(("_", "."))]
            rel = os.path.relpath(dirpath, ROOT).split(os.sep)
            lib = libs.get(rel[1]) if rel[0] == "lib" and len(rel) > 1 else None
            for f in sorted(files):
                if f.endswith(".ml"):
                    src = strip(open(os.path.join(dirpath, f)).read())
                    yield lib, f[:-3].capitalize(), src


def uses(lib, own, src, used):
    """Add (Lib, Mod, name) for each use in one program file to `used`."""
    # Module names visible in this file, mapped to (Lib, Mod).
    names = {}
    opened = set()
    for m in re.finditer(r"\bopen\s+(" + MODNAME + r")\b(?!\s*\.)", src):
        opened.add(m.group(1))

    def resolve(path):
        parts = path.split(".")
        if len(parts) == 2 and parts[0].startswith("Flux_"):
            return (parts[0], parts[1])
        if len(parts) == 1:
            if parts[0] in names:
                return names[parts[0]]
            if lib is not None:
                return (lib, parts[0])
            for o in opened:
                if o.startswith("Flux_"):
                    return (o, parts[0])
        return None

    for m in re.finditer(r"\bmodule\s+(" + MODNAME + r")\s*=\s*(" + MODNAME + r"(?:\." + MODNAME + r")*)", src):
        target = resolve(m.group(2))
        if target:
            names[m.group(1)] = target
    path_re = r"\b((?:" + MODNAME + r"\.)*" + MODNAME + r")\.(" + IDENT + r")"
    for m in re.finditer(path_re, src):
        target = resolve(m.group(1))
        if target and target != (lib, own):
            used.add(target + (m.group(2),))
    # Local opens: every bare identifier after them may name an export.
    for m in re.finditer(r"\b((?:" + MODNAME + r"\.)*" + MODNAME + r")\.\(|\blet\s+open\s+((?:" + MODNAME + r"\.)*" + MODNAME + r")\s+in\b", src):
        target = resolve(m.group(1) or m.group(2))
        if target and target != (lib, own):
            for w in re.findall(r"(?<![.A-Za-z0-9_'])(" + IDENT + r")", src[m.end():]):
                used.add(target + (w,))


def scan():
    libs = libraries()
    used = set()
    for lib, own, src in programs(libs):
        uses(lib, own, src, used)
    return sorted(
        "%s.%s.%s" % (lib, mod, name)
        for lib, mod, name in set(exports(libs))
        if (lib, mod, name) not in used
    )


def keep_file():
    kept = {}
    if os.path.exists(KEEP):
        for n, line in enumerate(open(KEEP), 1):
            line = line.strip()
            if line and not line.startswith("#"):
                name, _, why = line.partition(" ")
                if not why.strip():
                    sys.exit("%s:%d: %s states no guarantee" % (KEEP, n, name))
                kept[name] = why.strip()
    return kept


def main():
    hits = scan()
    if "--check" not in sys.argv[1:]:
        for h in hits:
            print(h)
        return
    kept = keep_file()
    bad = False
    for h in hits:
        if h not in kept:
            print("surface: %s is named by no program and is not in bench/surface.keep" % h)
            bad = True
    for k in sorted(kept):
        if k not in hits:
            print("surface: bench/surface.keep lists %s, which is no longer a hit" % k)
            bad = True
        if kept[k].startswith("deferred:"):
            print("surface: bench/surface.keep defers %s: delete it, or name the program "
                  "guarantee its test checks" % k)
            bad = True
    print("surface: %d hits, %d kept" % (len(hits), len(kept)))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
