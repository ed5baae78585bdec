#!/usr/bin/env python3
"""ast_audit.py -- semantic determinism/RNG audits for libstosched.

Three rules that line-oriented regexes cannot express (they need function
extents, parameter identity and use-site context), enforced as the tier-1
ctest `ast_audit`:

  rng-laundering
      A function that RECEIVES an `Rng&` parameter is a router, not a
      consumer: the reproducibility contract (bit-identical results per
      (seed, stream), see util/rng.hpp) only survives if such functions
      either carve named substreams or hand the stream on whole. Allowed
      uses of an `Rng&` parameter `p`:
        * bootstrap a substream root:   [const] Rng root(p());
        * carve a named substream:      p.stream(i)
        * forward it whole:             f(..., p, ...)
      Everything else -- drawing via `p.uniform(...)`/`p.below(...)`/...,
      handing it to a distribution's `d.sample(p)` / `d->sample(p)` (a
      draw on `p`, not forwarding), raw `p()` outside a bootstrap,
      aliasing -- is laundering: the draw count silently couples the
      caller's stream to this function's control flow, which is exactly
      how CRN pairings rot. Functions that ARE the draw site by design
      (instance generators, the random-assignment policy) declare it with
      an annotation carrying a mandatory reason:

          // rng-audit: sink(<why this function legitimately draws>)

      placed on or up to three lines above the definition. A simulate_*
      entry point can never be a sink: its Rng& is the caller's CRN
      stream, so the annotation on one is itself a violation and exempts
      nothing (tests/lint_fixtures/sink_simulate.cpp). Helpers are audited
      like entry points, so a draw laundered through one call level is
      caught too (tests/lint_fixtures/rng_laundering.cpp).

  unordered-iteration
      Iterating a std::unordered_{map,set} (range-for or .begin()) makes
      results a function of libstdc++'s hash seed and growth history;
      pointer-keyed std::{map,set,multimap,multiset} sort by allocation
      address, which varies run to run. Both break the determinism-gate CI
      leg. Unordered lookups (find/emplace/operator[]) stay fine -- only
      iteration order is nondeterministic, so only iteration is flagged.

  entry-contract
      Public entry points (simulate_*/run_*/compare_* definitions under
      src/queueing, src/batch, src/online) must open with input
      validation: a STOSCHED_EXPECTS/STOSCHED_REQUIRE contract or a
      validate()/validate_*() call within the first eight
      top-level statements. See src/util/contract.hpp for the
      REQUIRE-vs-EXPECTS division of labor.

Backends:
  --backend textual   (default) stdlib-only tokenizer + brace matching;
                      runs everywhere, gates the build as a ctest.
  --backend clang     drives `clang++ -Xclang -ast-dump=json` over a CMake
                      compile database (CMAKE_EXPORT_COMPILE_COMMANDS=ON)
                      for the two AST-shaped rules; entry-contract stays
                      textual even here because contracts are macros and
                      the AST only sees their expansion. Used by the
                      arch-and-ast CI job where clang-18 is installed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import lint_stosched  # noqa: E402  (shared strip_code)
from lint_stosched import line_of, match_brace, match_paren  # noqa: E402

RNG_SCOPE_EXCLUDE = ("util", "dist")  # the sampling layer IS the draw site
ENTRY_SCOPE = ("queueing", "batch", "online")
ENTRY_NAME_RE = re.compile(r"\b((?:simulate|run|compare)_\w+)\s*\(")
ENTRY_OPENING_STATEMENTS = 8
ENTRY_VALIDATION_RE = re.compile(
    r"STOSCHED_EXPECTS|STOSCHED_REQUIRE"
    r"|\.\s*validate\s*\(|\bvalidate_\w+\s*\(")
SIMULATE_NAME_RE = re.compile(r"\b(simulate_\w+)\s*\(")
# The reason is mandatory (non-empty after the paren); it may continue onto
# the next comment line, so the closing paren is not required on this one.
SINK_RE = re.compile(r"//\s*rng-audit:\s*sink\(\s*([^\s)][^\n]*)")
UNORDERED_DECL_RE = re.compile(r"\bstd\s*::\s*unordered_(?:map|set)\s*<")
ORDERED_DECL_RE = re.compile(r"\bstd\s*::\s*(?:multi)?(?:map|set)\s*<")


class Violation:
    def __init__(self, rule: str, path: str, line: int, message: str):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def match_angle(text: str, start: int) -> int:
    """Index just past the `>` matching the `<` at start, or -1."""
    depth = 0
    for i in range(start, len(text)):
        c = text[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def prev_nonspace(text: str, i: int) -> str:
    while i >= 0 and text[i].isspace():
        i -= 1
    return text[i] if i >= 0 else ""


def next_nonspace(text: str, i: int) -> int:
    while i < len(text) and text[i].isspace():
        i += 1
    return i


# ---------------------------------------------------------------------------
# textual backend: function extraction
# ---------------------------------------------------------------------------

def rng_param_functions(stripped: str):
    """Yield (name, header_line, audit_start, audit_end, [param names]) for
    every function DEFINITION whose parameter list contains `Rng&`;
    audit_end is just past the closing brace.

    The audit region covers a constructor's member-initializer list too
    (substream carving often happens there). Declarations, using-aliases
    and std::function types (no `{` after the parameter list) are skipped.
    """
    seen_parens = set()
    for m in re.finditer(r"\bRng\s*&", stripped):
        # Walk back to the parameter list's opening paren.
        depth = 0
        open_idx = -1
        for i in range(m.start() - 1, max(m.start() - 4000, -1), -1):
            c = stripped[i]
            if c == ")":
                depth += 1
            elif c == "(":
                if depth == 0:
                    open_idx = i
                    break
                depth -= 1
            elif c in ";}" and depth == 0:
                break  # statement boundary before any paren: not a param
        if open_idx < 0 or open_idx in seen_parens:
            continue
        seen_parens.add(open_idx)
        params_end = match_paren(stripped, open_idx)
        if params_end < 0:
            continue
        params = stripped[open_idx:params_end]
        names = [n for n in re.findall(r"\bRng\s*&\s*(\w*)", params) if n]
        if not names:
            continue

        # Skip qualifiers between `)` and the body / init list.
        i = params_end
        while True:
            i = next_nonspace(stripped, i)
            q = re.match(r"(?:const|noexcept|override|final|mutable)\b",
                         stripped[i:])
            if q:
                i += q.end()
                continue
            if stripped.startswith("->", i):  # trailing return type
                nxt = re.search(r"[{;]", stripped[i:])
                if not nxt or stripped[i + nxt.start()] != "{":
                    i = -1
                else:
                    i += nxt.start()
            break
        if i < 0 or i >= len(stripped):
            continue
        audit_start = None
        if stripped[i] == ":" and not stripped.startswith("::", i):
            audit_start = i  # constructor init list: audited too
            depth = 0
            while i < len(stripped):
                c = stripped[i]
                if c == "(":
                    depth += 1
                elif c == ")":
                    depth -= 1
                elif c == "{" and depth == 0:
                    break
                i += 1
        if i >= len(stripped) or stripped[i] != "{":
            continue
        body_end = match_brace(stripped, i)
        if body_end < 0:
            continue
        fn = re.search(r"(\w*)\s*$", stripped[max(0, open_idx - 200):open_idx])
        yield (fn.group(1), line_of(stripped, open_idx),
               audit_start if audit_start is not None else i,
               body_end, names)


SAMPLE_CALLEE_RE = re.compile(r"(?:\.|->)\s*sample\s*$")


def in_sample_call(text: str, pos: int) -> bool:
    """True when the argument at `pos` sits in a `d.sample(...)` or
    `d->sample(...)` call: the distribution draws on it directly."""
    depth = 0
    i = pos - 1
    while i >= 0:
        if text[i] in ")]}":
            depth += 1
        elif text[i] in "([{":
            if depth == 0:
                break
            depth -= 1
        i -= 1
    return (i >= 0 and text[i] == "("
            and SAMPLE_CALLEE_RE.search(text[max(0, i - 80):i]) is not None)


def audit_rng_uses(stripped: str, region_start: int, region_end: int,
                   name: str):
    """Yield (pos, message) for disallowed uses of parameter `name`."""
    region = stripped[region_start:region_end]
    allowed = []
    for am in re.finditer(
            r"(?:const\s+)?Rng\s+\w+\s*\(\s*" + name + r"\s*\(\s*\)\s*\)",
            region):
        allowed.append((am.start(), am.end()))
    for am in re.finditer(r"\b" + name + r"\s*\.\s*stream\s*\(", region):
        allowed.append((am.start(), am.end()))

    for um in re.finditer(r"\b" + name + r"\b", region):
        if any(a <= um.start() < b for a, b in allowed):
            continue
        j = next_nonspace(region, um.end())
        nxt = region[j] if j < len(region) else ""
        if nxt == ".":
            k = next_nonspace(region, j + 1)
            member = re.match(r"\w+", region[k:])
            member_name = member.group(0) if member else "?"
            yield (region_start + um.start(),
                   f"'{name}' draws directly via .{member_name}(); carve a "
                   "substream or forward the stream whole "
                   "(// rng-audit: sink(reason) if this function is the "
                   "draw site by design)")
        elif nxt == "(":
            yield (region_start + um.start(),
                   f"raw '{name}()' outside an `Rng root({name}())` "
                   "bootstrap")
        else:
            prev = prev_nonspace(region, um.start() - 1)
            if prev in "(," and nxt in ",)":
                if in_sample_call(region, um.start()):
                    yield (region_start + um.start(),
                           f"'{name}' draws directly via a distribution's "
                           ".sample(); carve a substream for it "
                           "(// rng-audit: sink(reason) if this function is "
                           "the draw site by design)")
                continue  # whole-argument forwarding
            yield (region_start + um.start(),
                   f"'{name}' aliased or used outside the substream "
                   "discipline (allowed: bootstrap, .stream(i), whole-"
                   "argument forwarding)")


def sink_lines(raw: str) -> set:
    lines = set()
    for i, text in enumerate(raw.splitlines(), start=1):
        m = SINK_RE.search(text)
        if m and m.group(1).strip():
            lines.add(i)
    return lines


def sink_annotated(sinks: set, fn_line: int) -> bool:
    return any(s in sinks for s in range(fn_line - 3, fn_line + 1))


def sink_exempt(sinks: set, fn_line: int, fn_name: str) -> bool:
    """A sink annotation exempts any definition but a simulate_* one."""
    return (not fn_name.startswith("simulate_")
            and sink_annotated(sinks, fn_line))


def check_rng_laundering(rel: str, raw: str, stripped: str) -> list:
    sinks = sink_lines(raw)
    out = []
    for fn, header_line, start, end, names in rng_param_functions(stripped):
        if sink_exempt(sinks, header_line, fn):
            continue
        for name in names:
            for pos, msg in audit_rng_uses(stripped, start, end, name):
                out.append(Violation("rng-laundering", rel,
                                     line_of(stripped, pos), msg))
    return out


# ---------------------------------------------------------------------------
# textual backend: unordered iteration / pointer-keyed containers
# ---------------------------------------------------------------------------

def check_unordered_iteration(rel: str, stripped: str) -> list:
    out = []
    unordered_names = set()
    for m in UNORDERED_DECL_RE.finditer(stripped):
        close = match_angle(stripped, m.end() - 1)
        if close < 0:
            continue
        # One or more declarators: `... memo_d, memo_r;`
        decl = re.match(r"\s*(\w+(?:\s*,\s*\w+)*)\s*[;={(]",
                        stripped[close:close + 200])
        if decl:
            for n in re.split(r"\s*,\s*", decl.group(1)):
                unordered_names.add(n)
    for name in sorted(unordered_names):
        for m in re.finditer(
                r"for\s*\([^;()]*:\s*" + name + r"\s*\)", stripped):
            out.append(Violation(
                "unordered-iteration", rel, line_of(stripped, m.start()),
                f"range-for over unordered container '{name}': iteration "
                "order depends on the hash seed and rehash history; use an "
                "ordered container or sort the keys first"))
        for m in re.finditer(r"\b" + name + r"\s*\.\s*c?begin\s*\(",
                             stripped):
            out.append(Violation(
                "unordered-iteration", rel, line_of(stripped, m.start()),
                f"iterator walk over unordered container '{name}': "
                "iteration order is not deterministic"))
    for m in ORDERED_DECL_RE.finditer(stripped):
        close = match_angle(stripped, m.end() - 1)
        if close < 0:
            continue
        args = stripped[m.end():close - 1]
        depth = 0
        key_end = len(args)
        for i, c in enumerate(args):
            if c == "<":
                depth += 1
            elif c == ">":
                depth -= 1
            elif c == "," and depth == 0:
                key_end = i
                break
        if "*" in args[:key_end]:
            out.append(Violation(
                "unordered-iteration", rel, line_of(stripped, m.start()),
                "pointer-keyed ordered container: iteration order is "
                "allocation-address order, which varies run to run; key by "
                "a stable id instead"))
    return out


# ---------------------------------------------------------------------------
# textual backend: entry contracts
# ---------------------------------------------------------------------------

def entry_opening(stripped: str, body_open: int) -> str:
    """The first ENTRY_OPENING_STATEMENTS top-level statements of a body."""
    depth_brace = 0
    depth_paren = 0
    statements = 0
    i = body_open + 1
    while i < len(stripped):
        c = stripped[i]
        if c == "{":
            depth_brace += 1
        elif c == "}":
            if depth_brace == 0:
                break
            depth_brace -= 1
        elif c == "(":
            depth_paren += 1
        elif c == ")":
            depth_paren -= 1
        elif c == ";" and depth_brace == 0 and depth_paren == 0:
            statements += 1
            if statements >= ENTRY_OPENING_STATEMENTS:
                break
        i += 1
    return stripped[body_open + 1:i + 1]


def definitions(stripped: str, name_re):
    """Yield (name match, body open index) for each function DEFINITION
    whose name matches `name_re`; declarations and calls have no `{` after
    the parameter list and its qualifiers."""
    for m in name_re.finditer(stripped):
        params_end = match_paren(stripped, m.end() - 1)
        if params_end < 0:
            continue
        i = next_nonspace(stripped, params_end)
        while q := re.match(r"(?:const|noexcept)\b", stripped[i:]):
            i = next_nonspace(stripped, i + q.end())
        if i < len(stripped) and stripped[i] == "{":
            yield m, i


def check_entry_sinks(rel: str, raw: str, stripped: str) -> list:
    """rng-laundering: no `// rng-audit: sink` on a simulate_* definition."""
    sinks = sink_lines(raw)
    out = []
    for m, _ in definitions(stripped, SIMULATE_NAME_RE):
        line = line_of(stripped, m.start())
        if sink_annotated(sinks, line):
            out.append(Violation(
                "rng-laundering", rel, line,
                f"'{m.group(1)}' is an entry point: its Rng& is the "
                "caller's CRN stream, so it must carve substreams and may "
                "not be annotated `// rng-audit: sink`"))
    return out


def check_entry_contract(rel: str, stripped: str) -> list:
    out = []
    for m, body_open in definitions(stripped, ENTRY_NAME_RE):
        if not ENTRY_VALIDATION_RE.search(entry_opening(stripped, body_open)):
            out.append(Violation(
                "entry-contract", rel, line_of(stripped, m.start()),
                f"public entry '{m.group(1)}' must validate its inputs "
                f"within its first {ENTRY_OPENING_STATEMENTS} statements "
                "(STOSCHED_EXPECTS / STOSCHED_REQUIRE / a validate() "
                "call); see src/util/contract.hpp"))
    return out


# ---------------------------------------------------------------------------
# clang backend (CI): the two AST-shaped rules over a compile database
# ---------------------------------------------------------------------------

def find_clang():
    for c in ("clang++-18", "clang++", "clang-18", "clang"):
        path = shutil.which(c)
        if path:
            return path
    return None


def ast_nodes(node, parents):
    """Depth-first (node, parents) walk of a clang JSON AST."""
    yield node, parents
    for child in node.get("inner", ()) or ():
        if isinstance(child, dict):
            yield from ast_nodes(child, parents + [node])


def clang_ast(clang: str, entry: dict) -> dict:
    """Run one compile-db entry through -ast-dump=json."""
    args = [clang, "-x", "c++", "-fsyntax-only", "-Xclang",
            "-ast-dump=json"]
    it = iter(entry["command"].split() if "command" in entry
              else entry["arguments"])
    next(it, None)  # original compiler
    for tok in it:
        if tok.startswith(("-I", "-D", "-std=", "-isystem")):
            args.append(tok)
    args.append(entry["file"])
    proc = subprocess.run(args, capture_output=True, text=True,
                          cwd=entry.get("directory", "."))
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr.strip().splitlines()[-1]
                           if proc.stderr.strip() else "clang failed")
    return json.loads(proc.stdout)


def is_rng_ref_type(qual: str) -> bool:
    return bool(re.search(r"\bRng\s*&$", qual or ""))


def clang_check_tu(tree: dict, rel: str, raw: str) -> list:
    """rng-laundering + unordered-iteration on one TU's JSON AST."""
    out = []
    sinks = sink_lines(raw)

    # Collect Rng& parameters of function definitions in this file.
    rng_params = {}  # decl id -> (name, fn line)
    for node, parents in ast_nodes(tree, []):
        if node.get("kind") != "ParmVarDecl":
            continue
        qual = (node.get("type") or {}).get("qualType", "")
        if not is_rng_ref_type(qual) or not node.get("name"):
            continue
        fn = next((p for p in reversed(parents)
                   if p.get("kind") in ("FunctionDecl", "CXXMethodDecl",
                                        "CXXConstructorDecl",
                                        "LambdaExpr")), None)
        if fn is None or not any(c.get("kind") == "CompoundStmt"
                                 for c in fn.get("inner", ())
                                 if isinstance(c, dict)):
            continue  # declaration only
        line = ((fn.get("loc") or {}).get("line")
                or (node.get("loc") or {}).get("line") or 0)
        rng_params[node["id"]] = (node["name"], line, fn.get("name", ""))

    for node, parents in ast_nodes(tree, []):
        kind = node.get("kind")
        if kind == "DeclRefExpr":
            ref = (node.get("referencedDecl") or {}).get("id")
            if ref not in rng_params:
                continue
            name, fn_line, fn_name = rng_params[ref]
            if sink_exempt(sinks, fn_line, fn_name):
                continue
            line = ((node.get("loc") or {}).get("line") or fn_line)
            # Nearest structural ancestor, skipping implicit casts/parens.
            chain = [p for p in reversed(parents)
                     if p.get("kind") not in ("ImplicitCastExpr",
                                              "ParenExpr")]
            parent = chain[0] if chain else {}
            pk = parent.get("kind", "")
            if pk == "MemberExpr":
                member = parent.get("name", "?")
                if member != "stream":
                    out.append(Violation(
                        "rng-laundering", rel, line,
                        f"'{name}' draws directly via .{member}() "
                        "(clang backend)"))
            elif pk == "CXXOperatorCallExpr":
                # p(): allowed only when the result constructs an Rng.
                gp = chain[1] if len(chain) > 1 else {}
                ctor_type = ((gp.get("type") or {}).get("qualType", ""))
                if not (gp.get("kind") == "CXXConstructExpr"
                        and re.search(r"\bRng\b", ctor_type)):
                    out.append(Violation(
                        "rng-laundering", rel, line,
                        f"raw '{name}()' outside an Rng bootstrap "
                        "(clang backend)"))
            elif pk == "CXXMemberCallExpr" and (
                    (parent.get("inner") or [{}])[0].get("name") == "sample"):
                # d.sample(p) / d->sample(p): the first child is the callee
                # MemberExpr, and the distribution draws on p.
                out.append(Violation(
                    "rng-laundering", rel, line,
                    f"'{name}' draws directly via a distribution's "
                    ".sample() (clang backend)"))
            elif pk in ("CallExpr", "CXXConstructExpr",
                        "CXXMemberCallExpr"):
                pass  # whole-argument forwarding
            elif pk in ("VarDecl", "BinaryOperator", "InitListExpr"):
                out.append(Violation(
                    "rng-laundering", rel, line,
                    f"'{name}' aliased or stored (clang backend)"))
        elif kind == "CXXForRangeStmt":
            for child, _ in ast_nodes(node, []):
                qual = (child.get("type") or {}).get("qualType", "")
                if "unordered_map" in qual or "unordered_set" in qual:
                    line = ((node.get("range") or {}).get("begin") or
                            {}).get("line") or 0
                    out.append(Violation(
                        "unordered-iteration", rel, line,
                        "range-for over an unordered container "
                        "(clang backend)"))
                    break
        elif kind in ("VarDecl", "FieldDecl"):
            qual = (node.get("type") or {}).get("qualType", "")
            if re.search(r"\bstd::(?:multi)?(?:map|set)<[^,<]*\*", qual):
                line = ((node.get("loc") or {}).get("line") or 0)
                out.append(Violation(
                    "unordered-iteration", rel, line,
                    "pointer-keyed ordered container (clang backend)"))
    return out


def run_clang_backend(root: Path, db_path: Path, files: list) -> list:
    clang = find_clang()
    if clang is None:
        print("ast_audit --backend clang: no clang++ on PATH",
              file=sys.stderr)
        sys.exit(3)
    with open(db_path, encoding="utf-8") as f:
        db = {str(Path(e["file"]).resolve()): e for e in json.load(f)}
    out = []
    for rel in files:
        if not rel.endswith(".cpp"):
            continue
        entry = db.get(str((root / rel).resolve()))
        if entry is None:
            continue
        raw = (root / rel).read_text(encoding="utf-8")
        try:
            out.extend(clang_check_tu(clang_ast(clang, entry), rel, raw))
        except Exception as e:  # noqa: BLE001 -- report, don't crash CI
            out.append(Violation("ast-backend-error", rel, 0, str(e)))
    return out


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def source_files(root: Path) -> list:
    src = root / "src"
    return sorted(
        p.relative_to(root).as_posix()
        for p in list(src.rglob("*.cpp")) + list(src.rglob("*.hpp")))


def in_rng_scope(rel: str) -> bool:
    parts = rel.split("/")
    return len(parts) > 2 and parts[1] not in RNG_SCOPE_EXCLUDE


def in_entry_scope(rel: str) -> bool:
    parts = rel.split("/")
    return len(parts) > 2 and parts[1] in ENTRY_SCOPE


def run_textual(root: Path, files: list) -> list:
    out = []
    for rel in files:
        raw = (root / rel).read_text(encoding="utf-8")
        stripped = lint_stosched.strip_code(raw)
        if in_rng_scope(rel):
            out.extend(check_rng_laundering(rel, raw, stripped))
            out.extend(check_entry_sinks(rel, raw, stripped))
        out.extend(check_unordered_iteration(rel, stripped))
        if in_entry_scope(rel):
            out.extend(check_entry_contract(rel, stripped))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--backend", choices=("textual", "clang"),
                        default="textual")
    parser.add_argument("--compile-db", type=Path, default=None,
                        help="compile_commands.json for --backend clang")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    files = source_files(root)

    if args.backend == "clang":
        db = args.compile_db or root / "build" / "compile_commands.json"
        violations = run_clang_backend(root, db, files)
        # entry-contract and the sink annotation are comment- and
        # macro-shaped: always checked textually.
        for rel in files:
            raw = (root / rel).read_text(encoding="utf-8")
            stripped = lint_stosched.strip_code(raw)
            if in_entry_scope(rel):
                violations.extend(check_entry_contract(rel, stripped))
            if in_rng_scope(rel):
                violations.extend(check_entry_sinks(rel, raw, stripped))
    else:
        violations = run_textual(root, files)

    for v in violations:
        print(v)
    if violations:
        print(f"\nast_audit: {len(violations)} violation(s)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
