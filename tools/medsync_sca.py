#!/usr/bin/env python3
"""medsync-sca: the invariant analyzer, rules MS001-MS009 and MS101-MS104.

It checks the contracts the compiler cannot see (DESIGN.md section 12).

One walk reads every .cc/.h under src/, tests/, bench/, examples/ and tools/
(fixture directories excluded); one lexer blanks its comments and literals.
Two rule families run over the result.

Per-line rules, on the blanked text of src/, tests/, bench/ and examples/
with preprocessor lines kept, so macro bodies are checked too. Their scopes
are path prefixes; tools/durability_allowlist.txt lists the audited files
MS003 (and MS009's raw file I/O) exempts:

  MS001 raw-thread       std::thread / jthread / async in src/ outside
                         src/common/threading/: spawn through ThreadPool so
                         TSan and the determinism suite see it.
  MS002 wall-clock       system_clock, time(), rand(), ... in src/ outside
                         src/common/{clock,random}.*: the simulation takes
                         time from SimClock and randomness from
                         DeterministicRng.
  MS003 durability       fwrite()/rename() in a src/ file not on the
                         durability allowlist: a torn write waiting for a
                         crash.
  MS004 test-labels      a tests/*_test.cc that spawns a ThreadPool without
                         the `tsan` ctest label, or touches FaultInjector
                         without `fault`.
  MS005 status-discard   a `(void)` cast of a call expression; the one
                         sanctioned discard is IgnoreStatusForTest().
  MS006 peer-fleet       a test with more than three direct Peer
                         constructions, or one inside a loop: fleets come
                         from core::GeneratedScenario.
  MS007 direct-chain     chain::Blockchain constructed outside src/chain/,
                         src/runtime/, tests/chain_* and bench/bench_chain_*:
                         it bypasses lane assignment.
  MS008 direct-rows      Table's two-tier layout (range-for over .head(),
                         .chunks(), .tombstones(), .dead_count(), rows_)
                         outside src/relational/, tests/relational_* and
                         bench/bench_storage*: only scan() merges the tiers.
  MS009 raw-socket       socket/epoll/poll/recv/send syscalls, and raw fd
                         read/write outside the durability files, in src/
                         outside src/net/.

Whole-program rules, over a program model (functions, call graph, lock
scopes, loop and binding types) built from the tokens of every file:

  MS101 lock-order       a cycle in the mutex-acquisition graph, printed
                         with its full witness path; a non-recursive
                         threading::Mutex re-acquired while held is the
                         degenerate cycle.
  MS102 determinism-flow iteration over std::unordered_map/set whose body
                         reaches a serialization, digest, metrics-snapshot
                         or network-send sink without an ordered rebuild in
                         between (directly, or by collecting into a vector
                         that reaches the sink unsorted). Order-insensitive
                         folds such as RowDigestAcc are exempt.
  MS103 loop-blocking    fsync, sleeps, CondVar/Latch/TaskGroup::Wait, or
                         locking a mutex whose critical sections block,
                         reachable from a callback registered on the
                         single-threaded net::EventLoop / Scheduler.
  MS104 status-leak      a Status/Result<T> bound to a variable that is
                         never read afterwards.

Suppression (whole-program rules only)
  tools/sca_allowlist.txt entries `MSxxx <substring>  # rationale`
  suppress findings whose location or witness path contains <substring>;
  inline `// medsync-sca(MSxxx): rationale` on the finding line does the
  same for one site. Every entry must carry a rationale.

Usage: tools/medsync_sca.py [--root REPO_ROOT] [--sarif FILE]
  --sarif FILE also writes SARIF 2.1.0 for CI annotations ('-' = stdout).
Exit status: non-zero iff unsuppressed findings were reported.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import sys
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

# ---------------------------------------------------------------------------
# Program model: what the frontend produces and the MS1xx rules consume.
# ---------------------------------------------------------------------------


class CallSite:
    __slots__ = ("name", "recv_type", "line", "pos", "args")

    def __init__(self, name: str, recv_type: Optional[str], line: int,
                 pos: int, args: Sequence[str] = ()):
        self.name = name          # simple or qualified ("Wal::Sync") name
        self.recv_type = recv_type  # class name of receiver when known
        self.line = line
        self.pos = pos            # token index (orders events within a body)
        self.args = frozenset(args)  # identifiers in the argument list


class AcquireSite:
    __slots__ = ("mutex", "line", "pos", "scope_end")

    def __init__(self, mutex: str, line: int, pos: int, scope_end: int):
        self.mutex = mutex        # canonical id, e.g. "ThreadPool::mu_"
        self.line = line
        self.pos = pos
        self.scope_end = scope_end  # token index where the lock scope ends


class UnorderedLoop:
    __slots__ = ("container", "line", "body_start", "body_end", "out_vars")

    def __init__(self, container: str, line: int, body_start: int,
                 body_end: int):
        self.container = container
        self.line = line
        self.body_start = body_start
        self.body_end = body_end
        # vectors appended to inside the body (for the sort-before-sink check)
        self.out_vars: List[str] = []


class StatusBinding:
    __slots__ = ("var", "line", "decl_end")

    def __init__(self, var: str, line: int, decl_end: int):
        self.var = var
        self.line = line
        self.decl_end = decl_end  # token index of the binding's ';'


class Registration:
    """A callback handed to an event loop / scheduler (Schedule, WatchFd)."""
    __slots__ = ("kind", "recv_type", "line", "body_start", "body_end")

    def __init__(self, kind: str, recv_type: str, line: int, body_start: int,
                 body_end: int):
        self.kind = kind
        self.recv_type = recv_type
        self.line = line
        self.body_start = body_start  # lambda body token range
        self.body_end = body_end


class FunctionModel:
    __slots__ = ("qname", "cls", "file", "line", "calls", "acquires",
                 "unordered_loops", "status_bindings", "registrations",
                 "tokens", "sorted_vars")

    def __init__(self, qname: str, cls: Optional[str], file: str, line: int):
        self.qname = qname
        self.cls = cls            # enclosing class simple name, if a method
        self.file = file
        self.line = line
        self.calls: List[CallSite] = []
        self.acquires: List[AcquireSite] = []
        self.unordered_loops: List[UnorderedLoop] = []
        self.status_bindings: List[StatusBinding] = []
        self.registrations: List[Registration] = []
        self.tokens: List["Tok"] = []   # body tokens
        self.sorted_vars: List[Tuple[str, int]] = []  # (var, pos) of sorts

    @property
    def simple_name(self) -> str:
        return self.qname.rsplit("::", 1)[-1]


class Program:
    def __init__(self) -> None:
        self.functions: List[FunctionModel] = []
        self.by_simple: Dict[str, List[FunctionModel]] = {}
        self.by_class_method: Dict[Tuple[str, str], List[FunctionModel]] = {}
        # class -> {member -> type text}; "" class = file-scope globals
        self.member_types: Dict[str, Dict[str, str]] = {}
        # function simple name -> return type text (last writer wins; used
        # for Status-returning and unordered-returning sets)
        self.return_types: Dict[str, str] = {}
        self.suppressions: Dict[Tuple[str, int], Set[str]] = {}

    def add(self, fn: FunctionModel) -> None:
        self.functions.append(fn)
        self.by_simple.setdefault(fn.simple_name, []).append(fn)
        if fn.cls:
            self.by_class_method.setdefault(
                (fn.cls, fn.simple_name), []).append(fn)

    def resolve(self, site: CallSite,
                caller: FunctionModel) -> List[FunctionModel]:
        """Resolves a call site to candidate definitions. Receiver-typed and
        in-class calls resolve exactly; bare names resolve to all same-named
        definitions (virtual-dispatch over-approximation) unless the name is
        too common to be meaningful."""
        if "::" in site.name:
            cls, method = site.name.rsplit("::", 2)[-2:]
            hit = self.by_class_method.get((cls, method))
            if hit:
                return hit
        name = site.name.rsplit("::", 1)[-1]
        if site.recv_type:
            hit = self.by_class_method.get((site.recv_type, name))
            if hit:
                return hit
            # Receiver of a known type but method not defined in-tree
            # (std:: containers etc.): not resolvable.
            return []
        if caller.cls:
            hit = self.by_class_method.get((caller.cls, name))
            if hit:
                return hit
        candidates = self.by_simple.get(name, [])
        if len(candidates) > MAX_AMBIGUOUS_CANDIDATES:
            return []
        return candidates


MAX_AMBIGUOUS_CANDIDATES = 6

# ---------------------------------------------------------------------------
# Rule configuration.
# ---------------------------------------------------------------------------

# MS102: sinks whose byte/order-sensitive output must not consume hash-order
# iteration. (class, method) with class None = any receiver / free function.
SINK_METHODS = {
    ("Json", "Dump"), ("Json", "Serialize"), ("Json", "Append"),
    ("Sha256", "Update"),
    (None, "Serialize"), (None, "SerializeFile"), (None, "SerializedSize"),
    (None, "ToJson"), (None, "JsonSnapshot"), (None, "ContentDigest"),
    (None, "AppendRecord"), (None, "WriteStringToFile"),
    (None, "EncodeFrame"),
    (None, "Send"), (None, "SendSized"), (None, "Broadcast"),
}
# Order-insensitive sinks: commutative folds, safe to feed in any order.
ORDER_INSENSITIVE_METHODS = {
    ("RowDigestAcc", "Add"), ("RowDigestAcc", "Remove"),
}
SORT_CALLS = {"sort", "stable_sort", "RowsInKeyOrder"}

# MS103: directly-blocking primitives.
BLOCKING_FREE = {"fsync", "fdatasync", "syncfs", "sync", "sleep", "usleep",
                 "nanosleep", "sleep_for", "sleep_until", "system"}
BLOCKING_METHODS = {("CondVar", "Wait"), ("Latch", "Wait"),
                    ("TaskGroup", "Wait")}
# Types whose Schedule/WatchFd registrations run on the event-loop thread.
LOOP_RECEIVER_TYPES = {"EventLoop", "Scheduler"}
REGISTRATION_METHODS = {"Schedule", "WatchFd"}

# MS104: the sanctioned discard-by-name idiom.
SANCTIONED_DISCARD = "IgnoreStatusForTest"

MAX_WITNESS_DEPTH = 24


class Finding:
    def __init__(self, rule: str, file: str, line: int, message: str,
                 witness: Optional[List[str]] = None):
        self.rule = rule
        self.file = file
        self.line = line
        self.message = message
        self.witness = witness or []

    def render(self) -> str:
        out = [f"{self.file}:{self.line}: {self.rule} {self.message}"]
        out.extend(f"    {step}" for step in self.witness)
        return "\n".join(out)

    def haystack(self) -> str:
        """Text the allowlist substring-matches against."""
        return "\n".join([f"{self.file}:{self.line}", self.message]
                         + self.witness)


# ---------------------------------------------------------------------------
# Lexer: one pass shared by both rule families.
# ---------------------------------------------------------------------------


class Tok:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind: str, text: str, line: int):
        self.kind = kind  # id | punct | num
        self.text = text
        self.line = line

    def __repr__(self) -> str:  # debugging aid
        return f"{self.text}@{self.line}"


_SUPPRESS_RE = re.compile(r"//\s*medsync-sca\((MS\d{3})\)")
_TOKEN_RE = re.compile(
    r"""
      (?P<comment>//(?:[^\n]*\\\n)*[^\n]*|/\*.*?\*/)
    | (?P<rawstr>R"(?P<delim>[^()\s\\]{0,16})\(.*?\)(?P=delim)")
    | (?P<str>"(?:\\.|[^"\\\n])*")
    | (?P<chr>'(?:\\.|[^'\\\n])*')
    | (?P<num>\.?\d(?:[\w.']|[eEpP][+-])*)
    | (?P<id>[A-Za-z_]\w*)
    | (?P<punct>::|->|\.\.\.|<<=|>>=|<=|>=|==|!=|&&|\|\||\+\+|--|->\*|[{}()\[\];:,<>=+\-*/&|!~^%?.#])
    """,
    re.VERBOSE | re.DOTALL,
)
_PREPROC_RE = re.compile(r"^[ \t]*#[^\n]*(?:\\\n[^\n]*)*", re.MULTILINE)
_LITERALS = ("comment", "rawstr", "str", "chr")


def _blank(match: re.Match) -> str:
    return re.sub(r"[^\n]", " ", match.group(0))


def blank_code(text: str) -> str:
    """Blanks comments and string/char literals to spaces. Newlines survive
    (so line numbers do), and so do preprocessor lines (macro bodies are
    code)."""
    return _TOKEN_RE.sub(
        lambda m: _blank(m) if m.lastgroup in _LITERALS else m.group(0), text)


class Source(NamedTuple):
    rel: str   # repo-relative path: what rule scopes and findings use
    text: str  # the file as read
    code: str  # blank_code(text)


def read_source(path: pathlib.Path, rel: str) -> Source:
    text = path.read_text(encoding="utf-8")
    return Source(rel, text, blank_code(text))


def tokenize(src: Source, suppressions: Dict[int, Set[str]]) -> List[Tok]:
    """Tokenizes a file's code with preprocessor lines dropped, and records
    its `// medsync-sca(MSxxx)` suppression comments by line."""
    for m in _SUPPRESS_RE.finditer(src.text):
        line = src.text.count("\n", 0, m.start()) + 1
        suppressions.setdefault(line, set()).add(m.group(1))
    code = _PREPROC_RE.sub(_blank, src.code)
    toks: List[Tok] = []
    line = 1
    pos = 0
    for m in _TOKEN_RE.finditer(code):
        line += code.count("\n", pos, m.start())
        pos = m.start()
        kind = m.lastgroup if m.lastgroup in ("num", "id") else "punct"
        toks.append(Tok(kind, m.group(0), line))
    return toks


# ---------------------------------------------------------------------------
# Frontend: structural indexer.
# ---------------------------------------------------------------------------

_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "catch", "do",
    "else", "new", "delete", "case", "default", "break", "continue",
    "static_cast", "dynamic_cast", "reinterpret_cast", "const_cast",
    "alignof", "decltype", "noexcept", "throw", "assert", "goto",
    "static_assert", "co_await", "co_return", "co_yield", "typeid",
}
_DECL_LINE_RE = re.compile(
    r"^\s*(?:mutable\s+|static\s+|inline\s+|constexpr\s+|thread_local\s+)*"
    r"(?P<type>(?:const\s+)?[A-Za-z_][\w:]*(?:<[^;={}]*>)?"
    r"(?:\s*(?:const|[*&]))*)\s+"
    r"(?P<name>[A-Za-z_]\w*)\s*"
    r"(?:MEDSYNC_GUARDED_BY\s*\([^)]*\)\s*)?"
    r"(?:=[^;]*|\{[^;]*\})?;")

_TYPEISH_STOP = {";", "{", "}", ",", "(", ")", "return"}


class Frontend:
    """Builds the Program from tokens with structural heuristics: precise
    enough for this codebase's house style, and the fixture suite pins
    exactly what it must catch."""

    def __init__(self, sources: Sequence[Source]):
        self.sources = list(sources)
        self.program = Program()

    # -- pass 1: harvest class members and function signatures ---------------

    def harvest_declarations(self, src: Source) -> None:
        prog = self.program
        # Class body spans via a simple scope scan over tokens.
        supp: Dict[int, Set[str]] = {}
        toks = tokenize(src, supp)
        for line, rules in supp.items():
            prog.suppressions.setdefault((src.rel, line), set()).update(rules)
        lines = src.code.splitlines()
        for cls, start_line, end_line in self._class_spans(toks):
            members = prog.member_types.setdefault(cls, {})
            for lineno in range(start_line, min(end_line, len(lines)) + 1):
                m = _DECL_LINE_RE.match(lines[lineno - 1])
                if m:
                    members[m.group("name")] = m.group("type")
        # File-scope globals (anonymous-namespace mutexes etc.).
        globals_ = prog.member_types.setdefault("", {})
        for lineno, raw in enumerate(lines, start=1):
            m = _DECL_LINE_RE.match(raw)
            if m and "Mutex" in m.group("type"):
                globals_[m.group("name")] = m.group("type")
        # Return types from function definitions/declarations:
        #   <type tokens> [Class::]Name ( ... ) [;{]
        i = 0
        n = len(toks)
        while i < n:
            t = toks[i]
            if t.kind == "id" and i + 1 < n and toks[i + 1].text == "(" \
                    and t.text not in _KEYWORDS:
                rtype = self._preceding_type(toks, i)
                if rtype:
                    prog.return_types.setdefault(t.text, rtype)
            i += 1

    def _class_spans(self, toks: List[Tok]) -> List[Tuple[str, int, int]]:
        spans = []
        stack: List[Tuple[Optional[str], int]] = []  # (class name | None,
        i, n = 0, len(toks)                          #  depth when opened)
        depth = 0
        while i < n:
            t = toks[i]
            if t.text in ("class", "struct") and i + 1 < n \
                    and toks[i + 1].kind == "id":
                # Skip to the opening '{' (may cross base-class lists);
                # abandon at ';' (forward declaration).
                j = i + 2
                while j < n and toks[j].text not in ("{", ";"):
                    j += 1
                if j < n and toks[j].text == "{":
                    stack.append((toks[i + 1].text, depth))
                    depth += 1
                    spans.append([toks[i + 1].text, toks[j].line, -1, depth])
                    i = j + 1
                    continue
                i = j + 1
                continue
            if t.text == "{":
                depth += 1
            elif t.text == "}":
                depth -= 1
                if stack and depth == stack[-1][1]:
                    name, _ = stack.pop()
                    for span in reversed(spans):
                        if span[0] == name and span[2] == -1:
                            span[2] = t.line
                            break
            i += 1
        return [(s[0], s[1], s[2] if s[2] != -1 else 10 ** 9) for s in spans]

    def _preceding_type(self, toks: List[Tok], name_idx: int) -> str:
        """Type tokens preceding a declarator name, bounded by statement
        punctuation. Empty string when the name is not a declaration."""
        j = name_idx - 1
        parts: List[str] = []
        while j >= 0:
            t = toks[j]
            if t.text in _TYPEISH_STOP or t.kind == "num":
                break
            if t.text in (">",):  # template argument close — grab the group
                bal = 1
                parts.append(t.text)
                j -= 1
                while j >= 0 and bal > 0:
                    if toks[j].text == ">":
                        bal += 1
                    elif toks[j].text == "<":
                        bal -= 1
                    parts.append(toks[j].text)
                    j -= 1
                continue
            if t.kind == "id" or t.text in ("::", "*", "&", "const"):
                parts.append(t.text)
                j -= 1
                continue
            break
        parts.reverse()
        type_text = " ".join(parts).strip()
        # Filter obvious non-types (control keywords, operators, `return x(`).
        if not type_text or type_text.split()[-1] in _KEYWORDS:
            return ""
        # A trailing '::' means the name is *qualified* (Status::OK(...)),
        # i.e. a call through a scope, not a declaration of the name.
        if type_text.endswith("::"):
            return ""
        return type_text

    # -- pass 2: function bodies ---------------------------------------------

    def index_file(self, src: Source) -> None:
        supp: Dict[int, Set[str]] = {}
        toks = tokenize(src, supp)
        spans = self._class_spans(toks)
        n = len(toks)
        i = 0
        depth = 0
        while i < n:
            t = toks[i]
            if t.text == "{":
                depth += 1
            elif t.text == "}":
                depth -= 1
            if t.kind == "id" and t.text not in _KEYWORDS and i + 1 < n \
                    and toks[i + 1].text == "(":
                body = self._match_function(toks, i)
                if body is not None:
                    close_paren, body_open, body_close, qname = body
                    cls = self._enclosing_class(spans, t.line)
                    if "::" in qname:
                        cls = qname.rsplit("::", 2)[-2]
                    fn = FunctionModel(
                        qname if "::" in qname or not cls
                        else f"{cls}::{qname}",
                        cls, src.rel, t.line)
                    fn.tokens = toks[body_open + 1:body_close]
                    params = self._param_types(toks, i + 1, close_paren)
                    self._analyze_body(fn, toks, body_open + 1, body_close,
                                       params)
                    self.program.add(fn)
                    i = body_close + 1
                    continue
            i += 1

    def _enclosing_class(self, spans, line: int) -> Optional[str]:
        best = None
        for cls, start, end in spans:
            if start <= line <= end:
                best = cls
        return best

    def _match_function(self, toks: List[Tok], name_idx: int):
        """If toks[name_idx] starts a function definition, returns
        (close_paren, body_open, body_close, qualified_name)."""
        n = len(toks)
        # Qualified name: walk back over `Ns::Cls::`.
        qparts = [toks[name_idx].text]
        j = name_idx - 1
        while j - 1 >= 0 and toks[j].text == "::" \
                and toks[j - 1].kind == "id":
            qparts.insert(0, toks[j - 1].text)
            j -= 2
        # Must look like a declaration: preceded by a type (or ctor/dtor
        # whose name matches the class). A call site has an operator,
        # keyword, or statement punctuation with no type before it.
        rtype = self._preceding_type(toks, j + 1)
        is_ctor_like = len(qparts) >= 2 and (
            qparts[-1] == qparts[-2] or qparts[-1].startswith("~"))
        if not rtype and not is_ctor_like:
            return None
        # Balance the parameter list.
        i = name_idx + 1
        bal = 0
        while i < n:
            if toks[i].text == "(":
                bal += 1
            elif toks[i].text == ")":
                bal -= 1
                if bal == 0:
                    break
            i += 1
        if i >= n:
            return None
        close_paren = i
        i += 1
        # Trailing qualifiers / annotation macros / member-init list.
        while i < n:
            t = toks[i]
            if t.text in ("const", "noexcept", "override", "final",
                          "mutable", "&", "&&"):
                i += 1
                continue
            if t.kind == "id" and i + 1 < n and toks[i + 1].text == "(":
                # Annotation macro: MEDSYNC_EXCLUDES(mu_) etc.
                bal = 0
                while i < n:
                    if toks[i].text == "(":
                        bal += 1
                    elif toks[i].text == ")":
                        bal -= 1
                        if bal == 0:
                            break
                    i += 1
                i += 1
                continue
            if t.kind == "id":  # bare macro, e.g. MEDSYNC_NO_THREAD_SAFETY...
                i += 1
                continue
            if t.text == "->":  # trailing return type
                i += 1
                while i < n and toks[i].text not in ("{", ";"):
                    i += 1
                continue
            if t.text == ":":
                # Member-initializer list: name ( ... ) | name { ... } [, ...]
                i += 1
                while i < n:
                    while i < n and toks[i].kind != "id":
                        i += 1
                    i += 1  # past the member name
                    if i >= n or toks[i].text not in ("(", "{"):
                        return None
                    opener, closer = toks[i].text, \
                        ")" if toks[i].text == "(" else "}"
                    bal = 0
                    while i < n:
                        if toks[i].text == opener:
                            bal += 1
                        elif toks[i].text == closer:
                            bal -= 1
                            if bal == 0:
                                break
                        i += 1
                    i += 1
                    if i < n and toks[i].text == ",":
                        i += 1
                        continue
                    break
                continue
            break
        if i >= n or toks[i].text != "{":
            return None
        body_open = i
        bal = 0
        while i < n:
            if toks[i].text == "{":
                bal += 1
            elif toks[i].text == "}":
                bal -= 1
                if bal == 0:
                    break
            i += 1
        if i >= n:
            return None
        return close_paren, body_open, i, "::".join(qparts)

    # -- body analysis -------------------------------------------------------

    def _param_types(self, toks: List[Tok], open_paren: int,
                     close_paren: int) -> Dict[str, str]:
        """Parameter name -> base type for one parameter list."""
        params: Dict[str, str] = {}
        seg: List[Tok] = []
        bal = 0
        for k in range(open_paren, close_paren + 1):
            t = toks[k]
            if t.text in ("(", "<", "["):
                bal += 1
            elif t.text in (")", ">", "]"):
                bal -= 1
            if (t.text == "," and bal == 1) or k == close_paren:
                ids = [s.text for s in seg if s.kind == "id"
                       and s.text not in ("const", "mutable")]
                if len(ids) >= 2:
                    params[ids[-1]] = ids[-2]
                seg = []
                continue
            if bal >= 1:
                seg.append(t)
        return params

    def _analyze_body(self, fn: FunctionModel, toks: List[Tok],
                      start: int, end: int,
                      params: Optional[Dict[str, str]] = None) -> None:
        locals_: Dict[str, str] = dict(params or {})
        prog = self.program
        members = dict(prog.member_types.get("", {}))
        if fn.cls:
            members.update(prog.member_types.get(fn.cls, {}))

        def type_of(name: str) -> Optional[str]:
            return locals_.get(name) or members.get(name)

        def block_end(open_idx: int) -> int:
            bal = 0
            k = open_idx
            while k < end:
                if toks[k].text == "{":
                    bal += 1
                elif toks[k].text == "}":
                    bal -= 1
                    if bal == 0:
                        return k
                k += 1
            return end

        def enclosing_block_end(idx: int) -> int:
            """Token index closing the innermost block containing idx."""
            bal = 0
            k = idx
            while k < end:
                if toks[k].text == "{":
                    bal += 1
                elif toks[k].text == "}":
                    bal -= 1
                    if bal < 0:
                        return k
                k += 1
            return end

        i = start
        while i < end:
            t = toks[i]
            # Local declarations (one-line regex equivalent on tokens):
            #   Type name = / ( / { / ;
            if t.kind == "id" and t.text not in _KEYWORDS and i + 1 < end \
                    and toks[i + 1].text in ("=", ";", "(", "{") \
                    and toks[i - 1].kind in ("id", "punct"):
                dtype = self._preceding_type(toks, i)
                if dtype and dtype.split()[-1] not in ("return",):
                    base = dtype.replace("const", "").replace("&", "") \
                        .replace("*", "").strip()
                    if base and base != "auto":
                        locals_.setdefault(t.text, base)
                    # MS104: Status/Result bindings.
                    if re.match(r"^(?:medsync\s*::\s*)?"
                                r"(?:common\s*::\s*)?"
                                r"(Status|Result\b)", base) \
                            and toks[i + 1].text in ("=", "("):
                        semi = i
                        while semi < end and toks[semi].text != ";":
                            semi += 1
                        fn.status_bindings.append(
                            StatusBinding(t.text, t.line, semi))
                    if base == "auto" or dtype == "auto":
                        pass
            # `auto name = Call(...)` where Call returns Status/Result.
            if t.text == "auto" and i + 2 < end and toks[i + 1].kind == "id" \
                    and toks[i + 2].text == "=":
                j = i + 3
                callee = None
                while j < end and toks[j].text != ";":
                    if toks[j].kind == "id" and j + 1 < end \
                            and toks[j + 1].text == "(":
                        callee = toks[j].text
                        break
                    j += 1
                rtype = prog.return_types.get(callee or "", "")
                if re.match(r"^(?:\w+\s*::\s*)*(Status|Result\b)", rtype):
                    semi = j
                    while semi < end and toks[semi].text != ";":
                        semi += 1
                    fn.status_bindings.append(
                        StatusBinding(toks[i + 1].text, toks[i + 1].line,
                                      semi))
            # MutexLock acquisitions: [threading::] MutexLock name ( expr )
            if t.text == "MutexLock" and i + 2 < end \
                    and toks[i + 1].kind == "id" \
                    and toks[i + 2].text == "(":
                mutex = self._mutex_id(toks, i + 3, type_of, fn)
                fn.acquires.append(AcquireSite(
                    mutex, t.line, i, enclosing_block_end(i)))
                i += 3
                continue
            # Direct expr.Lock() / expr->Lock() on a Mutex-typed member.
            if t.text == "Lock" and i + 1 < end and toks[i + 1].text == "(" \
                    and i >= 2 and toks[i - 1].text in (".", "->"):
                recv = toks[i - 2].text
                rtype = type_of(recv) or ""
                if "Mutex" in rtype:
                    mutex = self._qualify_mutex(recv, rtype, fn)
                    fn.acquires.append(AcquireSite(
                        mutex, t.line, i, enclosing_block_end(i)))
            # Range-for over an unordered container.
            if t.text == "for" and i + 1 < end and toks[i + 1].text == "(":
                # Register the loop declarator as a typed local:
                #   for (const StepEvent& event : events_)
                j = i + 2
                bal = 1
                decl: List[Tok] = []
                while j < end and bal > 0:
                    if toks[j].text == "(":
                        bal += 1
                    elif toks[j].text == ")":
                        bal -= 1
                    elif toks[j].text == ":" and bal == 1:
                        ids = [s.text for s in decl if s.kind == "id"
                               and s.text not in ("const", "auto")]
                        if len(ids) >= 2:
                            locals_.setdefault(ids[-1], ids[-2])
                        break
                    decl.append(toks[j])
                    j += 1
                loop = self._range_for(toks, i, end, type_of, block_end, fn)
                if loop:
                    fn.unordered_loops.append(loop)
            # Callback registrations: recv -> Schedule( ... [lambda] ... )
            if t.kind == "id" and t.text in REGISTRATION_METHODS \
                    and i + 1 < end and toks[i + 1].text == "(" \
                    and i >= 2 and toks[i - 1].text in (".", "->"):
                recv = toks[i - 2].text
                rtype = (type_of(recv) or "").replace("*", "").strip()
                rtype = rtype.rsplit("::", 1)[-1].split()[-1] if rtype else ""
                if rtype in LOOP_RECEIVER_TYPES:
                    # Find the lambda argument's body range.
                    j = i + 1
                    bal = 0
                    lam_open = None
                    while j < end:
                        if toks[j].text == "(":
                            bal += 1
                        elif toks[j].text == ")":
                            bal -= 1
                            if bal == 0:
                                break
                        elif toks[j].text == "{" and lam_open is None:
                            lam_open = j
                            j = block_end(j)
                            continue
                        j += 1
                    if lam_open is not None:
                        fn.registrations.append(Registration(
                            t.text, rtype, t.line, lam_open + 1,
                            block_end(lam_open)))
            # std::sort / std::stable_sort over a variable.
            if t.kind == "id" and t.text in SORT_CALLS and i + 1 < end \
                    and toks[i + 1].text == "(":
                j = i + 2
                while j < end and toks[j].text != ")":
                    if toks[j].kind == "id" and type_of(toks[j].text):
                        fn.sorted_vars.append((toks[j].text, j))
                    j += 1
            # Generic call sites.
            if t.kind == "id" and t.text not in _KEYWORDS and i + 1 < end \
                    and toks[i + 1].text == "(":
                recv_type = None
                name = t.text
                if i >= 2 and toks[i - 1].text in (".", "->"):
                    recv = toks[i - 2].text
                    rt = type_of(recv)
                    if rt:
                        rt = re.sub(r"\bconst\b|[*&]", "", rt).strip()
                        recv_type = rt.split("<")[0].rsplit("::", 1)[-1] \
                            .strip()
                    elif recv == "this" or recv.endswith("_"):
                        recv_type = None
                elif i >= 2 and toks[i - 1].text == "::" \
                        and toks[i - 2].kind == "id":
                    name = f"{toks[i - 2].text}::{t.text}"
                args: Set[str] = set()
                j = i + 1
                bal = 0
                while j < end:
                    if toks[j].text == "(":
                        bal += 1
                    elif toks[j].text == ")":
                        bal -= 1
                        if bal == 0:
                            break
                    elif toks[j].kind == "id" \
                            and toks[j].text not in _KEYWORDS:
                        args.add(toks[j].text)
                    j += 1
                # Skip declarations already recorded as locals with type ==
                # the identifier itself; calls to types (constructors) keep
                # flowing through resolve(), which simply finds no body.
                fn.calls.append(CallSite(name, recv_type, t.line, i, args))
            i += 1

    def _mutex_id(self, toks: List[Tok], idx: int, type_of, fn) -> str:
        """Canonical mutex id for the expression starting at toks[idx]
        (the MutexLock constructor argument)."""
        parts = []
        j = idx
        while j < len(toks) and toks[j].text != ")":
            parts.append(toks[j].text)
            j += 1
        expr = "".join(parts)
        # obj.mu_ / obj->mu_ / ptr->mu_: qualify by the receiver's type.
        m = re.match(r"^([A-Za-z_]\w*)(?:\.|->)([A-Za-z_]\w*)$", expr)
        if m:
            rtype = type_of(m.group(1)) or "?"
            rtype = re.sub(r"\bconst\b|[*&]", "", rtype).strip()
            return f"{rtype.split('<')[0].rsplit('::', 1)[-1]}::{m.group(2)}"
        m = re.match(r"^\*?([A-Za-z_]\w*)$", expr)
        if m:
            return self._qualify_mutex(m.group(1), type_of(m.group(1)) or "",
                                       fn)
        return f"{fn.cls or fn.file}::{expr}"

    def _qualify_mutex(self, name: str, declared_type: str,
                       fn: FunctionModel) -> str:
        if fn.cls and name in self.program.member_types.get(fn.cls, {}):
            return f"{fn.cls}::{name}"
        if name in self.program.member_types.get("", {}):
            return f"{fn.file}::{name}"
        # Parameter or local reference (CondVar::Wait(mu) style): attribute
        # to the enclosing class so ThreadPool::WorkerLoop(mu) == its mu_.
        return f"{fn.cls or fn.file}::{name}"

    def _range_for(self, toks: List[Tok], for_idx: int, end: int, type_of,
                   block_end, fn: FunctionModel) -> Optional[UnorderedLoop]:
        """Parses `for ( decl : range ) { body }`; returns an UnorderedLoop
        when the range expression has an unordered container type."""
        j = for_idx + 1
        bal = 0
        colon = None
        close = None
        while j < end:
            if toks[j].text == "(":
                bal += 1
            elif toks[j].text == ")":
                bal -= 1
                if bal == 0:
                    close = j
                    break
            elif toks[j].text == ":" and bal == 1 and colon is None:
                colon = j
            elif toks[j].text == ";" and bal == 1:
                return None  # classic for(;;)
            j += 1
        if colon is None or close is None:
            return None
        range_toks = toks[colon + 1:close]
        rtype = self._expr_type(range_toks, type_of)
        if not rtype or "unordered_" not in rtype:
            return None
        body_open = close + 1
        if body_open >= end or toks[body_open].text != "{":
            # Single-statement body: treat up to the ';'.
            body_close = body_open
            while body_close < end and toks[body_close].text != ";":
                body_close += 1
            loop = UnorderedLoop("".join(tk.text for tk in range_toks),
                                 toks[for_idx].line, body_open, body_close)
        else:
            loop = UnorderedLoop("".join(tk.text for tk in range_toks),
                                 toks[for_idx].line, body_open + 1,
                                 block_end(body_open))
        # Record push_back/emplace_back targets for the sort-before-sink leg.
        k = loop.body_start
        while k < loop.body_end:
            if toks[k].text in ("push_back", "emplace_back", "insert",
                                "emplace") and k >= 2 \
                    and toks[k - 1].text in (".", "->"):
                loop.out_vars.append(toks[k - 2].text)
            k += 1
        return loop

    def _expr_type(self, expr_toks: List[Tok], type_of) -> Optional[str]:
        ids = [t for t in expr_toks if t.kind == "id"]
        if not ids:
            return None
        # `var`, `*var`, `obj.member`, `obj.accessor()`, `Fn(x)`.
        t0 = type_of(ids[0].text)
        if t0 and len(ids) == 1:
            return t0
        last = ids[-1].text
        member_type = None
        if len(ids) >= 2:
            member_type = self.program.return_types.get(last)
            owner_type = type_of(ids[0].text)
            if owner_type:
                base = owner_type.split("<")[0].rsplit("::", 1)[-1].strip()
                member_type = (self.program.member_types.get(base, {})
                               .get(last) or member_type)
        return member_type or t0 or self.program.return_types.get(last)

    # -- driver --------------------------------------------------------------

    def build(self) -> Program:
        for src in self.sources:
            self.harvest_declarations(src)
        for src in self.sources:
            self.index_file(src)
        return self.program


# ---------------------------------------------------------------------------
# Whole-program rules MS101-MS104.
# ---------------------------------------------------------------------------


class Analyzer:
    def __init__(self, program: Program):
        self.prog = program
        self._acquired_memo: Dict[str, Dict[str, List[str]]] = {}
        self._blocking_memo: Dict[str, Optional[List[str]]] = {}
        self._sink_memo: Dict[str, Optional[List[str]]] = {}
        self._blocking_mutexes = self._find_blocking_mutexes()

    # -- shared reachability helpers ----------------------------------------

    def _acquired_in(self, fn: FunctionModel,
                     stack: Set[str]) -> Dict[str, List[str]]:
        """mutex -> witness path (list of 'qname (file:line)') for every
        mutex this function may acquire, transitively."""
        if fn.qname in self._acquired_memo:
            return self._acquired_memo[fn.qname]
        if fn.qname in stack:
            return {}
        stack.add(fn.qname)
        acquired: Dict[str, List[str]] = {}
        for site in fn.acquires:
            acquired.setdefault(
                site.mutex,
                [f"{fn.qname} acquires {site.mutex} "
                 f"({fn.file}:{site.line})"])
        for call in fn.calls:
            for callee in self.prog.resolve(call, fn):
                if callee.qname == fn.qname:
                    continue
                sub = self._acquired_in(callee, stack)
                for mutex, path in sub.items():
                    if mutex not in acquired and len(path) < \
                            MAX_WITNESS_DEPTH:
                        acquired[mutex] = [
                            f"{fn.qname} calls {callee.qname} "
                            f"({fn.file}:{call.line})"] + path
        stack.discard(fn.qname)
        self._acquired_memo[fn.qname] = acquired
        return acquired

    def _reaches(self, fn: FunctionModel, memo: Dict[str,
                                                     Optional[List[str]]],
                 hit_fn, stack: Set[str]) -> Optional[List[str]]:
        """Witness path to the first call satisfying hit_fn(callsite),
        searched transitively; None if unreachable."""
        if fn.qname in memo:
            return memo[fn.qname]
        if fn.qname in stack:
            return None
        stack.add(fn.qname)
        result: Optional[List[str]] = None
        for call in fn.calls:
            hit = hit_fn(call, fn)
            if hit:
                result = [f"{fn.qname} calls {hit} ({fn.file}:{call.line})"]
                break
        if result is None:
            for call in fn.calls:
                for callee in self.prog.resolve(call, fn):
                    if callee.qname == fn.qname:
                        continue
                    sub = self._reaches(callee, memo, hit_fn, stack)
                    if sub is not None and len(sub) < MAX_WITNESS_DEPTH:
                        result = [f"{fn.qname} calls {callee.qname} "
                                  f"({fn.file}:{call.line})"] + sub
                        break
                if result:
                    break
        stack.discard(fn.qname)
        memo[fn.qname] = result
        return result

    # -- MS101 ---------------------------------------------------------------

    def ms101_lock_order(self) -> List[Finding]:
        edges: Dict[Tuple[str, str], List[str]] = {}
        for fn in self.prog.functions:
            for site in fn.acquires:
                held = site.mutex
                # Later direct acquisitions inside this scope.
                for other in fn.acquires:
                    if other.pos > site.pos and other.pos <= site.scope_end:
                        key = (held, other.mutex)
                        edges.setdefault(key, [
                            f"{fn.qname} acquires {held} "
                            f"({fn.file}:{site.line})",
                            f"{fn.qname} then acquires {other.mutex} "
                            f"({fn.file}:{other.line})"])
                # Acquisitions reached through calls inside the scope.
                for call in fn.calls:
                    if not (site.pos < call.pos <= site.scope_end):
                        continue
                    for callee in self.prog.resolve(call, fn):
                        for mutex, path in self._acquired_in(
                                callee, set()).items():
                            key = (held, mutex)
                            if key not in edges:
                                edges[key] = [
                                    f"{fn.qname} acquires {held} "
                                    f"({fn.file}:{site.line})",
                                    f"{fn.qname} calls {callee.qname} "
                                    f"({fn.file}:{call.line})"] + path
        findings: List[Finding] = []
        graph: Dict[str, Set[str]] = {}
        for (a, b), _ in edges.items():
            graph.setdefault(a, set()).add(b)
        reported: Set[frozenset] = set()
        for (a, b), witness in sorted(edges.items()):
            if a == b:
                loc = self._edge_location(witness)
                findings.append(Finding(
                    "MS101", loc[0], loc[1],
                    f"lock-order: {a} re-acquired while already held — "
                    "threading::Mutex is non-recursive, this self-deadlocks",
                    witness))
                continue
            # Cycle through this edge?
            path = self._find_path(graph, b, a)
            if path is None:
                continue
            cycle_key = frozenset([a, b] + path)
            if cycle_key in reported:
                continue
            reported.add(cycle_key)
            loc = self._edge_location(witness)
            back_witness: List[str] = []
            nodes = [b] + path
            for u, v in zip(nodes, nodes[1:]):
                back_witness.extend(edges.get((u, v), []))
            findings.append(Finding(
                "MS101", loc[0], loc[1],
                "lock-order cycle: " + " -> ".join([a, b] + path) +
                " — two threads taking these locks in opposite orders "
                "deadlock",
                witness + ["-- and the cycle closes: --"] + back_witness))
        return findings

    def _find_path(self, graph: Dict[str, Set[str]], src: str,
                   dst: str) -> Optional[List[str]]:
        """BFS path src ~> dst, returned as the node list after src."""
        from collections import deque
        prev: Dict[str, Optional[str]] = {src: None}
        q = deque([src])
        while q:
            u = q.popleft()
            for v in graph.get(u, ()):
                if v in prev:
                    continue
                prev[v] = u
                if v == dst:
                    path = [v]
                    while prev[path[0]] not in (None, src):
                        path.insert(0, prev[path[0]])
                    return path
                q.append(v)
        return None

    def _edge_location(self, witness: List[str]) -> Tuple[str, int]:
        m = re.search(r"\(([^():]+):(\d+)\)", witness[0])
        if m:
            return m.group(1), int(m.group(2))
        return "?", 0

    # -- MS102 ---------------------------------------------------------------

    def _is_sink(self, call: CallSite, caller: FunctionModel) -> \
            Optional[str]:
        name = call.name.rsplit("::", 1)[-1]
        if (call.recv_type, name) in ORDER_INSENSITIVE_METHODS:
            return None
        if (call.recv_type, name) in SINK_METHODS or \
                (None, name) in SINK_METHODS:
            if (call.recv_type, name) in ORDER_INSENSITIVE_METHODS:
                return None
            return f"sink {call.recv_type + '::' if call.recv_type else ''}" \
                   f"{name}"
        return None

    def ms102_determinism_flow(self) -> List[Finding]:
        findings: List[Finding] = []
        for fn in self.prog.functions:
            for loop in fn.unordered_loops:
                hit: Optional[List[str]] = None
                for call in fn.calls:
                    if not (loop.body_start <= call.pos < loop.body_end):
                        continue
                    direct = self._is_sink(call, fn)
                    if direct:
                        hit = [f"{fn.qname} loop body reaches {direct} "
                               f"({fn.file}:{call.line})"]
                        break
                    for callee in self.prog.resolve(call, fn):
                        sub = self._reaches(callee, self._sink_memo,
                                            self._is_sink, set())
                        if sub is not None:
                            hit = [f"{fn.qname} loop body calls "
                                   f"{callee.qname} ({fn.file}:{call.line})"
                                   ] + sub
                            break
                    if hit:
                        break
                if hit is None:
                    hit = self._unsorted_collection_flow(fn, loop)
                if hit:
                    findings.append(Finding(
                        "MS102", fn.file, loop.line,
                        f"determinism-flow: iteration over unordered "
                        f"container '{loop.container}' reaches an "
                        "order-sensitive sink — hash order is "
                        "implementation-defined and leaks into "
                        "digests/serialized bytes; rebuild in sorted order "
                        "first", hit))
        return findings

    def _unsorted_collection_flow(self, fn: FunctionModel,
                                  loop: UnorderedLoop) -> \
            Optional[List[str]]:
        """Loop collects into a vector that later feeds a sink without an
        intervening sort."""
        for var in loop.out_vars:
            sorted_after = [pos for v, pos in fn.sorted_vars
                            if v == var and pos >= loop.body_end]
            for call in fn.calls:
                if call.pos <= loop.body_end:
                    continue
                if sorted_after and min(sorted_after) < call.pos:
                    break
                # var appears as an argument to a sink call?
                if var not in call.args:
                    continue
                direct = self._is_sink(call, fn)
                if direct:
                    return [f"{fn.qname} collects '{var}' in hash order, "
                            f"then {direct} consumes it unsorted "
                            f"({fn.file}:{call.line})"]
        return None

    # -- MS103 ---------------------------------------------------------------

    def _find_blocking_mutexes(self) -> Dict[str, str]:
        """Mutexes whose critical sections contain a blocking primitive:
        locking them can block for the full blocking duration."""
        blocking: Dict[str, str] = {}
        for fn in self.prog.functions:
            for site in fn.acquires:
                for call in fn.calls:
                    if not (site.pos < call.pos <= site.scope_end):
                        continue
                    hit = self._is_blocking(call, fn)
                    if hit:
                        blocking.setdefault(
                            site.mutex,
                            f"{fn.qname} holds {site.mutex} across {hit} "
                            f"({fn.file}:{call.line})")
        return blocking

    def _is_blocking(self, call: CallSite,
                     caller: FunctionModel) -> Optional[str]:
        name = call.name.rsplit("::", 1)[-1]
        if name in BLOCKING_FREE:
            return f"blocking call {name}()"
        if (call.recv_type, name) in BLOCKING_METHODS:
            return f"blocking wait {call.recv_type}::{name}"
        if call.recv_type is None and name == "Wait":
            # Un-typed receiver: treat known waiter classes' Wait as blocking
            # only when the caller class itself owns one (conservative).
            return f"blocking wait {name}"
        return None

    def _is_blocking_or_slow_lock(self, call: CallSite,
                                  caller: FunctionModel) -> Optional[str]:
        hit = self._is_blocking(call, caller)
        if hit:
            return hit
        return None

    def ms103_loop_blocking(self) -> List[Finding]:
        findings: List[Finding] = []
        for fn in self.prog.functions:
            for reg in fn.registrations:
                # Direct blocking calls and slow-mutex locks in the callback
                # body, then transitive reachability through its calls.
                witness: Optional[List[str]] = None
                for site in fn.acquires:
                    if reg.body_start <= site.pos < reg.body_end and \
                            site.mutex in self._blocking_mutexes:
                        witness = [
                            f"callback locks {site.mutex} "
                            f"({fn.file}:{site.line})",
                            self._blocking_mutexes[site.mutex]]
                        break
                if witness is None:
                    for call in fn.calls:
                        if not (reg.body_start <= call.pos < reg.body_end):
                            continue
                        direct = self._is_blocking(call, fn)
                        if direct:
                            witness = [f"callback reaches {direct} "
                                       f"({fn.file}:{call.line})"]
                            break
                        for callee in self.prog.resolve(call, fn):
                            sub = self._reaches(
                                callee, self._blocking_memo,
                                self._is_blocking_or_slow_lock, set())
                            if sub is not None:
                                witness = [
                                    f"callback calls {callee.qname} "
                                    f"({fn.file}:{call.line})"] + sub
                                break
                        if witness:
                            break
                if witness:
                    findings.append(Finding(
                        "MS103", fn.file, reg.line,
                        f"event-loop-blocking: callback registered via "
                        f"{reg.recv_type}::{reg.kind} in {fn.qname} reaches "
                        "a blocking primitive — a blocked loop thread "
                        "stalls every timer and connection in the process",
                        witness))
        return findings

    # -- MS104 ---------------------------------------------------------------

    def ms104_status_leak(self) -> List[Finding]:
        findings: List[Finding] = []
        for fn in self.prog.functions:
            for binding in fn.status_bindings:
                if self._binding_used(fn, binding):
                    continue
                findings.append(Finding(
                    "MS104", fn.file, binding.line,
                    f"status-leak: '{binding.var}' in {fn.qname} binds a "
                    "Status/Result that is never read — branch on it, "
                    "return it, or discard it by name with "
                    "IgnoreStatusForTest()"))
        return findings

    def _binding_used(self, fn: FunctionModel,
                      binding: StatusBinding) -> bool:
        # Token-level liveness: any appearance of the name after the
        # binding statement counts (branch, return, move, member call, …).
        seen_decl = False
        uses = 0
        for idx, tok in enumerate(fn.tokens):
            if tok.kind != "id" or tok.text != binding.var:
                continue
            if not seen_decl and tok.line == binding.line:
                seen_decl = True
                continue
            if seen_decl or tok.line > binding.line:
                uses += 1
        return uses > 0


# ---------------------------------------------------------------------------
# Per-line rules MS001-MS009.
# ---------------------------------------------------------------------------

MS001_PATTERN = re.compile(r"\bstd::(thread|jthread|async)\b")
MS001_ALLOWED_PREFIXES = ("src/common/threading/",)

MS002_PATTERNS = [
    re.compile(r"\bstd::chrono::system_clock\b"),
    re.compile(r"(?<![A-Za-z0-9_:.>])s?rand\s*\("),
    re.compile(r"(?<![A-Za-z0-9_:.>])time\s*\("),
    re.compile(r"\b(gettimeofday|clock_gettime|localtime|gmtime)\s*\("),
]
MS002_ALLOWED_FILES = (
    "src/common/clock.h",
    "src/common/clock.cc",
    "src/common/random.h",
    "src/common/random.cc",
)

MS003_PATTERN = re.compile(r"(?<![A-Za-z0-9_])((?:std::|::)?(?:fwrite|rename))\s*\(")

# `(void)` followed by something that is called: (void)Foo(...),
# (void)obj.Method(...), (void)ns::Fn(...), (void)::Fn(...),
# (void)ptr->Call(...).
MS005_PATTERN = re.compile(
    r"\(\s*void\s*\)\s*(?:::)?[A-Za-z_][A-Za-z0-9_:.]*(?:->[A-Za-z0-9_:.]+)*"
    r"\s*\(")

# Direct Blockchain construction: a stack/member object (`Blockchain x(...)`
# or `Blockchain x{...}`), make_unique, or new. Accessors returning
# `Blockchain&` and member declarations without an initializer don't match.
MS007_PATTERN = re.compile(
    r"\b(?:chain::)?Blockchain\s+[A-Za-z_][A-Za-z0-9_]*\s*[({]"
    r"|\bmake_unique<\s*(?:chain::)?Blockchain\b"
    r"|\bnew\s+(?:chain::)?Blockchain\b")
MS007_ALLOWED_PREFIXES = (
    "src/chain/",          # the layer being constructed
    "src/runtime/",        # ChainNode owns the per-lane chains
    "tests/chain_",        # chain-layer unit tests
    "bench/bench_chain_",  # chain-core microbench (raw-layer by design)
)

# Two-tier layout bypass. `.head()` fires only as a range-for target because
# chain::Blockchain::head() is a legitimate, unrelated accessor; the other
# storage accessors and the rows_ member are unambiguous.
MS008_RANGE_FOR_HEAD = re.compile(
    r"for\s*\([^;{]*:\s*[^;{]*(?:\.|->)\s*head\s*\(\s*\)")
MS008_PATTERN = re.compile(
    r"(?:\.|->)\s*(?:chunks|tombstones|dead_count)\s*\(\s*\)|\brows_\b")
MS008_ALLOWED_PREFIXES = (
    "src/relational/",     # the storage layer itself
    "tests/relational_",   # storage-layer unit/property/scale tests
    "bench/bench_storage", # storage microbench inspects layout by design
)

# Raw network syscalls (sockets, epoll/poll multiplexing) and raw fd I/O.
# The lookbehind excludes member calls (`conn.send(`, `stream->read(`) and
# qualified names (`fs::read(`); an explicitly global-namespace `::read(` is
# still the syscall and still matches (the `::` is part of the match, so the
# lookbehind sees whatever precedes it).
MS009_SOCKET_PATTERN = re.compile(
    r"(?<![A-Za-z0-9_.>:])((?:::)?(?:"
    r"socket|connect|bind|listen|accept4?|shutdown"
    r"|epoll_(?:create1?|ctl|wait|pwait)|poll|ppoll|select|pselect"
    r"|recv(?:from|msg)?|send(?:to|msg)?|[gs]etsockopt"
    r"))\s*\(")
MS009_IO_PATTERN = re.compile(
    r"(?<![A-Za-z0-9_.>:])((?:::)?(?:"
    r"p?read|p?write|readv|writev"
    r"))\s*\(")
MS009_ALLOWED_PREFIXES = ("src/net/",)


def _path_allowed(rel: str, prefixes) -> bool:
    return any(rel.startswith(p) for p in prefixes)


def check_lines(src: Source, durability_allowlist: Set[str]) -> List[Finding]:
    """Per-line rules over one file. `src.rel` scopes them, so a fixture
    can masquerade as any in-tree path."""
    rel = src.rel
    findings: List[Finding] = []
    in_src = rel.startswith("src/")
    for lineno, line in enumerate(src.code.splitlines(), start=1):
        if in_src and not _path_allowed(rel, MS001_ALLOWED_PREFIXES):
            match = MS001_PATTERN.search(line)
            if match:
                findings.append(Finding(
                    "MS001", rel, lineno,
                    f"raw {match.group(0)} outside src/common/threading/ — "
                    "spawn through threading::ThreadPool so TSan and the "
                    "determinism suite see it"))
        if in_src and rel not in MS002_ALLOWED_FILES:
            for pattern in MS002_PATTERNS:
                match = pattern.search(line)
                if match:
                    findings.append(Finding(
                        "MS002", rel, lineno,
                        f"wall-clock/libc-random call '{match.group(0).strip()}' "
                        "outside common/clock / common/random — use SimClock / "
                        "DeterministicRng (determinism contract)"))
        if in_src and rel not in durability_allowlist:
            match = MS003_PATTERN.search(line)
            if match:
                findings.append(Finding(
                    "MS003", rel, lineno,
                    f"'{match.group(1)}' in a file not on "
                    "tools/durability_allowlist.txt — bare write/rename "
                    "without an audited fsync protocol is a torn-write risk"))
        match = MS005_PATTERN.search(line)
        if match:
            findings.append(Finding(
                "MS005", rel, lineno,
                "'(void)' cast of a call expression — handle the Status, "
                "propagate it, or discard by name with IgnoreStatusForTest()"))
        if not _path_allowed(rel, MS007_ALLOWED_PREFIXES):
            match = MS007_PATTERN.search(line)
            if match:
                findings.append(Finding(
                    "MS007", rel, lineno,
                    "direct chain::Blockchain construction bypasses lane "
                    "assignment (DESIGN.md section 14) — go through "
                    "runtime::ChainNode (or core::GeneratedScenario) so "
                    "transactions land in their assigned lane"))
        if in_src and not _path_allowed(rel, MS009_ALLOWED_PREFIXES):
            match = MS009_SOCKET_PATTERN.search(line)
            if match is None and rel not in durability_allowlist:
                match = MS009_IO_PATTERN.search(line)
            if match:
                findings.append(Finding(
                    "MS009", rel, lineno,
                    f"raw syscall '{match.group(1)}' outside src/net/ — wire "
                    "I/O goes through net::SocketTransport / net::EventLoop "
                    "(DESIGN.md section 16) so framing, CRC accounting, and "
                    "the simulator/socket seam stay in one place"))
        if not _path_allowed(rel, MS008_ALLOWED_PREFIXES):
            match = (MS008_RANGE_FOR_HEAD.search(line)
                     or MS008_PATTERN.search(line))
            if match:
                findings.append(Finding(
                    "MS008", rel, lineno,
                    "direct access to Table's two-tier storage layout "
                    "(head/chunks/tombstones/rows_) outside src/relational/ "
                    "— iterate with table.scan(), which merges the mutable "
                    "head with the sealed chunks and skips dead rows "
                    "(DESIGN.md section 15)"))
    return findings


_PROPERTIES_BLOCK = re.compile(
    r"set_tests_properties\s*\(\s*(?P<tests>.*?)\bPROPERTIES\s+LABELS\s+"
    r"(?P<label>[A-Za-z0-9_;\"]+)\s*\)",
    re.DOTALL,
)
_PROPERTY_BLOCK = re.compile(
    r"set_property\s*\(\s*TEST\s+(?P<tests>.*?)\bAPPEND\s+PROPERTY\s+LABELS\s+"
    r"(?P<label>[A-Za-z0-9_;\"]+)\s*\)",
    re.DOTALL,
)


def parse_test_labels(cmake_text: str) -> dict:
    """Returns {test_name: set(labels)} from a tests/CMakeLists.txt."""
    labels: dict = {}
    for block in (_PROPERTIES_BLOCK, _PROPERTY_BLOCK):
        for match in block.finditer(cmake_text):
            names = match.group("tests").split()
            for label in match.group("label").strip('"').split(";"):
                for name in names:
                    labels.setdefault(name, set()).add(label)
    return labels


def check_test_labels(tests: Sequence[Source],
                      cmake_text: str) -> List[Finding]:
    """MS004 over the tests/*_test.cc sources, given tests/CMakeLists.txt."""
    labels = parse_test_labels(cmake_text)
    findings: List[Finding] = []
    for src in tests:
        name = pathlib.PurePosixPath(src.rel).stem
        test_labels = labels.get(name, set())
        if re.search(r"\bThreadPool\b", src.code) \
                and "tsan" not in test_labels:
            findings.append(Finding(
                "MS004", src.rel, 1,
                f"test '{name}' spawns a ThreadPool but has no `tsan` ctest "
                "label — add it in tests/CMakeLists.txt so the TSan preset "
                "covers it"))
        if re.search(r"\bFaultInjector\b", src.code) \
                and "fault" not in test_labels:
            findings.append(Finding(
                "MS004", src.rel, 1,
                f"test '{name}' touches FaultInjector but has no `fault` "
                "ctest label — add it in tests/CMakeLists.txt"))
    return findings


MS006_PATTERN = re.compile(
    r"\bmake_unique<\s*(?:core::)?Peer\s*>|\bnew\s+(?:core::)?Peer\b")
MS006_LOOP = re.compile(r"\b(?:for|while)\s*\(")
# A loop header at most this many lines above a construction is considered
# (heuristic; the loop body of a fleet builder is short).
MS006_LOOP_WINDOW = 8
MS006_MAX_DIRECT_PEERS = 3


def _inside_open_loop(lines: List[str], site_lineno: int) -> bool:
    """True if a for/while within the window above `site_lineno` has not
    closed its braces again by the site — i.e. the construction sits in the
    loop body, not merely below a finished loop."""
    site = site_lineno - 1  # 0-based index of the construction line
    lo = max(0, site - MS006_LOOP_WINDOW)
    for j in range(site - 1, lo - 1, -1):
        if not MS006_LOOP.search(lines[j]):
            continue
        balance = sum(line.count("{") - line.count("}")
                      for line in lines[j:site])
        if balance > 0:
            return True
    return False


def check_peer_fleets(tests: Sequence[Source]) -> List[Finding]:
    """MS006 over the tests/*_test.cc sources."""
    findings: List[Finding] = []
    for src in tests:
        lines = src.code.splitlines()
        sites = [lineno for lineno, line in enumerate(lines, start=1)
                 if MS006_PATTERN.search(line)]
        if not sites:
            continue
        looped = None
        for lineno in sites:
            if _inside_open_loop(lines, lineno):
                looped = lineno
                break
        if len(sites) <= MS006_MAX_DIRECT_PEERS and looped is None:
            continue
        how = (f"Peer constructed in a loop at line {looped}"
               if looped is not None
               else f"{len(sites)} direct Peer constructions")
        findings.append(Finding(
            "MS006", src.rel, sites[0],
            f"hand-rolled peer fleet ({how}) — build multi-peer worlds with "
            "the seeded generator (core::GeneratedScenario, "
            "src/core/scenario_gen.h) so seeds, adversity schedules, and "
            "the soak oracles apply"))
    return findings


# ---------------------------------------------------------------------------
# Allowlists, tree walk and driver.
# ---------------------------------------------------------------------------


def load_allowlist(path: pathlib.Path) -> List[Tuple[str, str, str]]:
    entries: List[Tuple[str, str, str]] = []
    if not path.exists():
        return entries
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        body, _, rationale = line.partition("#")
        parts = body.split(None, 1)
        if len(parts) == 2 and rationale.strip():
            entries.append((parts[0], parts[1].strip(), rationale.strip()))
        elif len(parts) == 2:
            print(f"medsync-sca: allowlist entry without rationale "
                  f"ignored: {line}", file=sys.stderr)
    return entries


def apply_suppressions(findings: List[Finding], program: Program,
                       allowlist: List[Tuple[str, str, str]]) -> \
        Tuple[List[Finding], int]:
    kept: List[Finding] = []
    suppressed = 0
    for finding in findings:
        inline = program.suppressions.get((finding.file, finding.line),
                                          set())
        if finding.rule in inline:
            suppressed += 1
            continue
        hay = finding.haystack()
        if any(rule == finding.rule and pattern in hay
               for rule, pattern, _ in allowlist):
            suppressed += 1
            continue
        kept.append(finding)
    return kept, suppressed


def load_durability_allowlist(path: pathlib.Path) -> Set[str]:
    allowlist: Set[str] = set()
    if not path.exists():
        return allowlist
    for line in path.read_text(encoding="utf-8").splitlines():
        entry = line.split("#", 1)[0].strip()
        if entry:
            allowlist.add(entry)
    return allowlist


def collect_sources(root: pathlib.Path) -> List[str]:
    """Repo-relative paths of every .cc/.h in the walked directories. The
    fixture filter looks at the repo-relative path only, so a checkout that
    itself sits under some `fixtures` directory is still analyzed."""
    rels: List[str] = []
    for top in ("src", "tools", "examples", "tests", "bench"):
        base = root / top
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            rel = path.relative_to(root).as_posix()
            if path.suffix in (".cc", ".h") and "fixtures" not in rel:
                rels.append(rel)
    return rels


RULES = {
    "MS001": "raw std::thread/jthread/async outside src/common/threading/",
    "MS002": "wall-clock or libc-random call outside common/clock, random",
    "MS003": "fwrite/rename in a file not on the durability allowlist",
    "MS004": "pool- or fault-injecting test without its tsan/fault label",
    "MS005": "(void) cast of a call expression",
    "MS006": "hand-rolled peer fleet in a test",
    "MS007": "direct chain::Blockchain construction outside its owners",
    "MS008": "direct access to Table's two-tier storage layout",
    "MS009": "raw socket or fd syscall in src/ outside src/net/",
    "MS101": "lock-order cycle (potential deadlock)",
    "MS102": "unordered iteration reaches an order-sensitive sink",
    "MS103": "blocking primitive reachable from an event-loop callback",
    "MS104": "Status/Result bound to a variable that is never read",
}
def sarif_dump(findings: List[Finding]) -> str:
    results = []
    for f in findings:
        message = f.message
        if f.witness:
            message += "\n" + "\n".join(f.witness)
        results.append({
            "ruleId": f.rule,
            "level": "error",
            "message": {"text": message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": f.file},
                    "region": {"startLine": max(f.line, 1)},
                },
            }],
        })
    doc = {
        "$schema": "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                   "master/Schemata/sarif-schema-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "medsync-sca",
                "rules": [{"id": rid,
                           "shortDescription": {"text": text}}
                          for rid, text in sorted(RULES.items())],
            }},
            "results": results,
        }],
    }
    return json.dumps(doc, indent=2)


def run_rules(program: Program) -> List[Finding]:
    analyzer = Analyzer(program)
    findings: List[Finding] = []
    findings.extend(analyzer.ms101_lock_order())
    findings.extend(analyzer.ms102_determinism_flow())
    findings.extend(analyzer.ms103_loop_blocking())
    findings.extend(analyzer.ms104_status_leak())
    findings.sort(key=lambda f: (f.file, f.line, f.rule))
    return findings


def run_line_rules(root: pathlib.Path,
                   sources: Sequence[Source]) -> List[Finding]:
    durability = load_durability_allowlist(
        root / "tools" / "durability_allowlist.txt")
    findings: List[Finding] = []
    for src in sources:
        if src.rel.startswith(("src/", "tests/", "bench/", "examples/")):
            findings.extend(check_lines(src, durability))
    tests = [src for src in sources
             if re.fullmatch(r"tests/[^/]+_test\.cc", src.rel)]
    cmake = root / "tests" / "CMakeLists.txt"
    if cmake.exists():
        findings.extend(check_test_labels(
            tests, cmake.read_text(encoding="utf-8")))
    findings.extend(check_peer_fleets(tests))
    return findings


def analyze(root: pathlib.Path) -> Tuple[List[Finding], int, int]:
    """Runs every rule over the tree at `root`. Returns (unsuppressed
    findings, audited suppressions, files read)."""
    sources = [read_source(root / rel, rel) for rel in collect_sources(root)]
    program = Frontend(sources).build()
    findings, suppressed = apply_suppressions(
        run_rules(program), program,
        load_allowlist(root / "tools" / "sca_allowlist.txt"))
    findings.extend(run_line_rules(root, sources))
    findings.sort(key=lambda f: (f.file, f.line, f.rule))
    return findings, suppressed, len(sources)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve()
                        .parent.parent)
    parser.add_argument("--sarif", metavar="FILE", default=None,
                        help="also write SARIF 2.1.0 ('-' = stdout)")
    opts = parser.parse_args(argv)

    findings, suppressed, files = analyze(opts.root.resolve())

    # With --sarif -, stdout must carry pure SARIF JSON; route the
    # human-readable report to stderr so the stream stays parseable.
    human = sys.stderr if opts.sarif == "-" else sys.stdout
    for finding in findings:
        print(finding.render(), file=human)
    if opts.sarif:
        text = sarif_dump(findings)
        if opts.sarif == "-":
            print(text)
        else:
            pathlib.Path(opts.sarif).write_text(text + "\n",
                                                encoding="utf-8")
    note = f" ({suppressed} audited suppression(s))" if suppressed else ""
    if findings:
        print(f"medsync-sca: {len(findings)} finding(s) in {files} files"
              f"{note}", file=sys.stderr)
        return 1
    print(f"medsync-sca: {files} files clean{note}", file=human)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        sys.exit(0)
