#!/usr/bin/env python3
"""Project-rule linter: mechanical invariants the compiler cannot express.

Each rule bans a pattern whose legitimate uses live in exactly one place,
so "the pattern appears anywhere else" is always a defect:

  M1  naked-mutex       — std::mutex / std::lock_guard / std::unique_lock /
      std::condition_variable (and friends) anywhere in src/ outside
      src/common/mutex.{h,cc}. Raw mutexes are invisible to clang Thread
      Safety Analysis and to the CAME_DEADLOCK_CHECK lock-order validator;
      came::Mutex / came::MutexLock / came::CondVar are the only lockable
      types allowed.

  P1  raw-parse         — atoi / atof / atol / strtol / strtod / ... in
      src/, examples/ or bench/ outside src/common/flags.cc. The raw
      functions silently turn "abc" into 0 and "10x" into 10; use
      came::flags::ParseInt/ParseUint/ParseDouble (full-consumption,
      range-checked) or the *Flag CLI wrappers.

  U1  uninit-justify    — Tensor::Uninitialized(...) call sites in src/
      without a `// fully-written:` justification on the same line or one
      of the two lines above. Uninitialized elides the zero-fill, which is
      only sound when every element is provably written before being read;
      the comment pins that proof to the call site so a later refactor
      that turns the output into an accumulator trips review (and the
      CAME_TENSOR_POOL=scrub sNaN mode at runtime).

  S1  status-swallow    — `(void)` casts that discard a came::Status (or a
      call to a function the tree declares as Status-returning), in src/,
      examples/, bench/ or tests/. Status is [[nodiscard]]; the escape
      valve is Status::LogIfError("context"), which keeps the decision to
      survive an error explicit and greppable.

  E1  raw-getenv        — getenv / std::getenv / secure_getenv in src/,
      examples/ or bench/ outside src/common/runtime_config.cc. Every
      CAME_* knob is a row of that file's table, parsed once into
      came::RuntimeConfig with one grammar and one warning format; a
      second reader would bring back a second grammar. Read the field
      from came::GetRuntimeConfig() instead.

  E2  kg-file-format    — in src/ outside src/kg/: a `.tsv"` string literal
      (a KG file name), a '\t' field split or row write (find/getline/
      split on a tab, or a tab streamed with <<), or an id-field parse
      (std::from_chars, or flags::ParseInt/ParseUint of a field).
      The KG directory format is decided once, in src/kg/kg_files.{h,cc}:
      the five file names, the line rules (blank lines, CRLF, exact field
      count), the checked id parser and the flushed-and-checked row
      writers. A second reader or writer is how the copies came to
      disagree. Use kg::TsvReader / kg::TsvWriter and the kg::k*File
      names instead.

  E3  one-file-io       — in src/ outside src/common/io.{h,cc} and
      src/kg/kg_files.{h,cc}: a file
      stream (std::ofstream / std::ifstream / std::fstream / fopen) or a
      POD byte-append (`reinterpret_cast<const char*>(&value)`). Library
      files are written through io::WriteFileAtomic (crash-safe, and a
      failed write is a Status, where a stream checked before its flush
      reports success), binary files are one io container with
      io::ByteWriter / io::ByteReader, and KG text files go through
      kg::TsvReader / kg::TsvWriter. A hand-rolled writer or framing is how
      two copies of one format came to exist.

There are no inline suppressions: the allowlists above are the complete
set, so a new violation can only be fixed, not waved through.

Exit status 0 when clean, 1 with a per-violation listing otherwise.

Usage:
  lint_project.py [--repo DIR]   # lint the repository (default: cwd)
  lint_project.py --self-test    # verify every rule fires on fixtures
"""

import argparse
import re
import sys
from pathlib import Path

SRC_EXTS = {".h", ".cc", ".cpp"}

MUTEX_ALLOWED = {"src/common/mutex.h", "src/common/mutex.cc"}
RAW_PARSE_ALLOWED = {"src/common/flags.cc"}
GETENV_ALLOWED = {"src/common/runtime_config.cc"}
KG_FORMAT_DIR = "src/kg/"
FILE_IO_ALLOWED = {"src/common/io.h", "src/common/io.cc",
                   "src/kg/kg_files.h", "src/kg/kg_files.cc"}

MUTEX_RE = re.compile(
    r"\bstd::(?:mutex|recursive_mutex|timed_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock|condition_variable(?:_any)?)\b")
RAW_PARSE_RE = re.compile(
    r"\b(?:std::)?(?:atoi|atof|atol|atoll|strtol|strtoll|strtoul|strtoull|"
    r"strtof|strtod|strtold)\s*\(")
GETENV_RE = re.compile(r"\b(?:std::)?(?:secure_)?getenv\s*\(")
TSV_NAME_RE = re.compile(r'\.tsv"')
# A tab literal as a split delimiter (find('\t'), getline(in, f, '\t'),
# Split(..., '\t')) or streamed into a row (<< '\t', << "...\t...").
# A `case '\t':` label (json_writer's escape table) is neither.
TAB_SPLIT_RE = re.compile(
    r"""(?:\bfind\w*|\bgetline|\b[Ss]plit\w*)\s*\([^;]*?'\\t'|"""
    r"""<<\s*(?:'\\t'|"[^"]*\\t)""")
# The id parser's primitive, or a checked parse of a row field.
ID_PARSE_RE = re.compile(
    r"\bfrom_chars\s*\(|"
    r"\bParse(?:Int|Uint)\s*\(\s*(?:\w*[Ff]ield|\w+\s*\[)")
FILE_STREAM_RE = re.compile(r"\bstd::(?:o|i)?fstream\b|\bfopen\s*\(")
POD_APPEND_RE = re.compile(r"\breinterpret_cast\s*<\s*const\s+char\s*\*\s*>"
                           r"\s*\(\s*&")
UNINIT_CALL_RE = re.compile(r"\bUninitialized\s*\(")
UNINIT_NON_CALL_RE = re.compile(
    r"^\s*(?:static\s+Tensor\s+Uninitialized\s*\(|"  # declaration
    r"Tensor\s+Tensor::Uninitialized\s*\()")          # definition
FULLY_WRITTEN_RE = re.compile(r"//\s*fully-written:")
# `(void)<expr>` where <expr> plainly names a status.
VOID_STATUS_RE = re.compile(r"\(void\)\s*[\w.>-]*[Ss]tatus\w*\b|"
                            r"\(void\)\s*_?st\b")
# Declarations like `Status Foo(...)` / `static Status Foo(...)` in any
# header: the tree's own Status-returning API surface.
STATUS_FN_DECL_RE = re.compile(
    r"^\s*(?:\[\[nodiscard\]\]\s*)?(?:virtual\s+|static\s+)*"
    r"(?:came::|common::)?Status\s+(\w+)\s*\(", re.MULTILINE)
LINE_COMMENT_RE = re.compile(r"//.*$")


def iter_source_files(repo, subdirs):
    for sub in subdirs:
        root = repo / sub
        if not root.is_dir():
            continue
        for path in sorted(root.rglob("*")):
            if path.suffix in SRC_EXTS and path.is_file():
                yield path


def rel(repo, path):
    return path.relative_to(repo).as_posix()


def strip_comment(line):
    """Drops a trailing // comment so commented-out code never fires."""
    return LINE_COMMENT_RE.sub("", line)


def check_naked_mutex(relpath, lines):
    if relpath in MUTEX_ALLOWED:
        return []
    problems = []
    for i, line in enumerate(lines, 1):
        if MUTEX_RE.search(strip_comment(line)):
            problems.append((relpath, i, "M1 naked-mutex",
                             "use came::Mutex/MutexLock/CondVar "
                             "(common/mutex.h), not std:: locking types"))
    return problems


def check_raw_parse(relpath, lines):
    if relpath in RAW_PARSE_ALLOWED:
        return []
    problems = []
    for i, line in enumerate(lines, 1):
        if RAW_PARSE_RE.search(strip_comment(line)):
            problems.append((relpath, i, "P1 raw-parse",
                             "use came::flags::ParseInt/ParseDouble or the "
                             "*Flag wrappers, not atoi/strtol-family"))
    return problems


def check_raw_getenv(relpath, lines):
    if relpath in GETENV_ALLOWED:
        return []
    problems = []
    for i, line in enumerate(lines, 1):
        if GETENV_RE.search(strip_comment(line)):
            problems.append((relpath, i, "E1 raw-getenv",
                             "add a row to src/common/runtime_config.cc and "
                             "read came::GetRuntimeConfig(), not getenv"))
    return problems


def check_kg_file_format(relpath, lines):
    if not relpath.startswith("src/") or relpath.startswith(KG_FORMAT_DIR):
        return []
    problems = []
    for i, line in enumerate(lines, 1):
        code = strip_comment(line)
        if TSV_NAME_RE.search(code):
            what = "a KG file name"
        elif TAB_SPLIT_RE.search(code):
            what = "a tab-separated field split or row write"
        elif ID_PARSE_RE.search(code):
            what = "an id-field parse"
        else:
            continue
        problems.append((relpath, i, "E2 kg-file-format",
                         what + " outside src/kg/: read and write KG "
                         "files through kg::TsvReader/kg::TsvWriter "
                         "(kg/kg_files.h)"))
    return problems


def check_one_file_io(relpath, lines):
    if not relpath.startswith("src/") or relpath in FILE_IO_ALLOWED:
        return []
    problems = []
    for i, line in enumerate(lines, 1):
        code = strip_comment(line)
        if FILE_STREAM_RE.search(code):
            what = "a file stream"
        elif POD_APPEND_RE.search(code):
            what = "a POD byte-append"
        else:
            continue
        problems.append((relpath, i, "E3 one-file-io",
                         what + " outside common/io and kg/kg_files: "
                         "write files with "
                         "io::WriteFileAtomic and binary data with "
                         "io::ByteWriter/io::WriteContainer"))
    return problems


def check_uninit_justified(relpath, lines):
    problems = []
    for i, line in enumerate(lines, 1):
        if not UNINIT_CALL_RE.search(strip_comment(line)):
            continue
        if UNINIT_NON_CALL_RE.search(line):
            continue  # the declaration/definition, not a call site
        window = lines[max(0, i - 3):i]  # two lines above + the line itself
        if not any(FULLY_WRITTEN_RE.search(w) for w in window):
            problems.append((relpath, i, "U1 uninit-justify",
                             "Tensor::Uninitialized needs a "
                             "`// fully-written:` justification within the "
                             "two preceding lines"))
    return problems


def check_status_swallow(relpath, lines, status_fns):
    problems = []
    void_call_re = None
    if status_fns:
        names = "|".join(sorted(status_fns))
        void_call_re = re.compile(
            r"\(void\)\s*(?:[\w.>-]+(?:\.|->|::))?(?:%s)\s*\(" % names)
    for i, line in enumerate(lines, 1):
        code = strip_comment(line)
        if VOID_STATUS_RE.search(code) or (void_call_re and
                                           void_call_re.search(code)):
            problems.append((relpath, i, "S1 status-swallow",
                             "don't (void)-discard a Status; handle it, "
                             "propagate it, or call "
                             "status.LogIfError(\"context\")"))
    return problems


def collect_status_fns(repo):
    """Function names declared as returning Status in src/ headers."""
    names = set()
    for path in iter_source_files(repo, ["src"]):
        if path.suffix != ".h":
            continue
        names.update(STATUS_FN_DECL_RE.findall(path.read_text()))
    # Factory helpers named like `Status OK()` are constructors of Status,
    # not fallible operations; discard obvious constructors.
    return names - {"OK"}


def lint_repo(repo):
    repo = Path(repo)
    problems = []
    status_fns = collect_status_fns(repo)
    for path in iter_source_files(repo, ["src"]):
        relpath = rel(repo, path)
        lines = path.read_text().splitlines()
        problems += check_naked_mutex(relpath, lines)
        problems += check_uninit_justified(relpath, lines)
        problems += check_kg_file_format(relpath, lines)
        problems += check_one_file_io(relpath, lines)
    for path in iter_source_files(repo, ["src", "examples", "bench"]):
        relpath = rel(repo, path)
        lines = path.read_text().splitlines()
        problems += check_raw_parse(relpath, lines)
        problems += check_raw_getenv(relpath, lines)
    for path in iter_source_files(repo, ["src", "examples", "bench",
                                         "tests"]):
        relpath = rel(repo, path)
        lines = path.read_text().splitlines()
        problems += check_status_swallow(relpath, lines, status_fns)
    return problems


def report(problems):
    for relpath, line, rule, msg in problems:
        print(f"{relpath}:{line}: [{rule}] {msg}")
    print(f"lint_project: {len(problems)} violation(s)")
    return 1


# --- self-test fixtures ----------------------------------------------------

FIXTURES = [
    # (label, rule that must fire or None for clean, file-relpath, source)
    ("naked std::mutex member", "M1", "src/foo/bar.h",
     "class C {\n  std::mutex mu_;\n};\n"),
    ("naked lock_guard", "M1", "src/foo/bar.cc",
     "void F() {\n  std::lock_guard<std::mutex> l(mu_);\n}\n"),
    ("condition_variable_any", "M1", "src/foo/bar.cc",
     "std::condition_variable_any cv;\n"),
    ("came::Mutex is fine", None, "src/foo/bar.h",
     "class C {\n  came::Mutex mu_;\n  came::CondVar cv_;\n};\n"),
    ("mutex.h itself may use std::mutex", None, "src/common/mutex.h",
     "class Mutex {\n  std::mutex mu_;\n};\n"),
    ("commented-out mutex does not fire", None, "src/foo/bar.cc",
     "// std::mutex old_mu_;\n"),
    ("raw atoi", "P1", "examples/tool.cpp",
     "int n = atoi(argv[1]);\n"),
    ("raw std::strtol", "P1", "src/foo/parse.cc",
     "long v = std::strtol(s, &end, 10);\n"),
    ("flags.cc may use strtoll", None, "src/common/flags.cc",
     "long long v = strtoll(s, &end, 10);\n"),
    ("checked parser is fine", None, "src/foo/parse.cc",
     "auto v = flags::ParseInt(s);\n"),
    ("raw std::getenv", "E1", "src/foo/knob.cc",
     "const char* v = std::getenv(\"CAME_FOO\");\n"),
    ("raw getenv in a bench", "E1", "bench/bench_foo.cc",
     "if (const char* v = getenv(\"CAME_BENCH_SCALE\")) {}\n"),
    ("runtime_config.cc may call getenv", None,
     "src/common/runtime_config.cc",
     "return std::getenv(name);\n"),
    ("commented-out getenv does not fire", None, "src/foo/knob.cc",
     "// std::getenv(\"CAME_FOO\") used to live here\n"),
    ("KG file name outside src/kg", "E2", "src/datagen/gen.cc",
     'std::ofstream out(dir + "/train.tsv");\n'),
    ("tab split outside src/kg", "E2", "src/train/source.cc",
     "const size_t tab = line.find('\\t', start);\n"),
    ("tab row write outside src/kg", "E2", "src/datagen/gen.cc",
     "out << h << '\\t' << r << '\\t' << t << '\\n';\n"),
    ("id-field parse outside src/kg", "E2", "src/train/source.cc",
     "const Result<int64_t> id = flags::ParseInt(fields[0]);\n"),
    ("src/kg may read and write KG files", None, "src/kg/kg_files.cc",
     "out_ << head << '\\t' << rel << '\\t' << tail << '\\n';\n"
     "const size_t tab = line.find('\\t', start);\n"),
    ("json escape table is not a field split", None,
     "src/common/json_writer.cc",
     "      case '\\t':\n        out += \"\\\\t\";\n"),
    ("from_chars outside src/kg", "E2", "src/eval/x.cc",
     "std::from_chars(f.data(), f.data() + f.size(), id);\n"),
    ("a flag or knob parse is not an id parse", None,
     "src/common/runtime_config.cc",
     "const Result<int64_t> v = flags::ParseInt(text);\n"),
    ("a .tsv name in a comment does not fire", None, "src/train/x.h",
     "// reads train.tsv rows through kg::TsvReader\n"),
    ("ofstream outside common/io", "E3", "src/common/json_writer.cc",
     "  std::ofstream f(path);\n"),
    ("fopen outside common/io", "E3", "src/foo/dump.cc",
     "FILE* f = fopen(path.c_str(), \"wb\");\n"),
    ("POD byte-append outside common/io", "E3", "src/train/checkpoint.cc",
     "  buf->append(reinterpret_cast<const char*>(&value), sizeof(T));\n"),
    ("common/io may frame bytes", None, "src/common/io.h",
     "out->append(reinterpret_cast<const char*>(&value), sizeof(T));\n"),
    ("kg_files.cc may open a stream", None, "src/kg/kg_files.cc",
     "  in_ = std::ifstream(path_);\n"),
    ("a test may open a stream", None, "tests/foo/bar_test.cc",
     "std::ofstream out(path, std::ios::binary);\n"),
    ("a tensor data cast is not a POD append", None, "src/foo/slab.cc",
     "const char* p = reinterpret_cast<const char*>(t.data());\n"),
    ("WriteFileAtomic is the sanctioned form", None, "src/foo/dump.cc",
     "return io::WriteFileAtomic(path, doc.data(), doc.size());\n"),
    ("unjustified Uninitialized", "U1", "src/foo/kernel.cc",
     "Tensor out = Tensor::Uninitialized(x.shape());\n"),
    ("justified same line", None, "src/foo/kernel.cc",
     "Tensor out = Tensor::Uninitialized(x.shape());"
     "  // fully-written: elementwise loop below\n"),
    ("justified line above", None, "src/foo/kernel.cc",
     "// fully-written: every element stored by the gather loop\n"
     "Tensor out = Tensor::Uninitialized(x.shape());\n"),
    ("justification too far away", "U1", "src/foo/kernel.cc",
     "// fully-written: stale comment\n\n\n"
     "Tensor out = Tensor::Uninitialized(x.shape());\n"),
    ("the declaration itself is exempt", None, "src/tensor/tensor.h",
     "  static Tensor Uninitialized(Shape shape);\n"),
    ("(void) status variable", "S1", "src/foo/save.cc",
     "(void)status;\n"),
    ("(void) st variable", "S1", "src/foo/save.cc",
     "(void)st;\n"),
    ("(void) Status-returning call", "S1", "src/foo/save.cc",
     "(void)writer.Close();\n"),
    ("(void) on non-status is fine", None, "src/foo/save.cc",
     "(void)unused_arg;\n"),
    ("LogIfError is the sanctioned form", None, "src/foo/save.cc",
     "writer.Close().LogIfError(\"Abort\");\n"),
]

SELF_TEST_STATUS_FNS = {"Close", "Save"}


def self_test():
    failures = []
    for label, want_rule, relpath, source in FIXTURES:
        lines = source.splitlines()
        problems = (check_naked_mutex(relpath, lines) +
                    check_raw_parse(relpath, lines) +
                    check_raw_getenv(relpath, lines) +
                    check_uninit_justified(relpath, lines) +
                    check_kg_file_format(relpath, lines) +
                    check_one_file_io(relpath, lines) +
                    check_status_swallow(relpath, lines,
                                         SELF_TEST_STATUS_FNS))
        fired = {rule.split()[0] for _, _, rule, _ in problems}
        if want_rule is None and fired:
            failures.append(f"{label!r}: expected clean, fired {fired}")
        elif want_rule is not None and want_rule not in fired:
            failures.append(f"{label!r}: expected {want_rule}, "
                            f"fired {fired or 'nothing'}")
    if failures:
        print("lint_project --self-test FAILED:")
        for f in failures:
            print("  " + f)
        return 1
    print(f"lint_project --self-test OK ({len(FIXTURES)} fixtures)")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repo", default=".")
    ap.add_argument("--self-test", action="store_true",
                    help="run the linter against its own fixtures")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    problems = lint_repo(args.repo)
    if problems:
        return report(problems)
    print("lint_project OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
