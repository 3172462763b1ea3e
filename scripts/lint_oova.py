#!/usr/bin/env python3
"""Project-specific lint gate.

Seven repo invariants that neither the compiler nor clang-tidy can
see, each of which has bitten (or nearly bitten) a past PR:

  1. Every registered figure has a checked-in golden
     (tests/golden/<name>.txt), so no figure dodges the output gate.
  2. Every golden belongs to a registered figure — orphans mean the
     gate is diffing against nothing.
  3. Every SimResult data member is named, as `("name", r.name`, in
     walkFields() in src/mem/simresult.cc, and every derived accessor
     is written by SimResult::toJson(). toJson() and fromJson() both
     run the walk, so a counter missing from it would stay out of the
     machine-readable output and silently zero itself on every
     result-store hit.
  4. No naked new/delete outside the dedicated storage code: the
     simulator's hot-path storage is slab/sliding-queue based, and
     ad-hoc ownership has no place next to it.
  5. Every CpiBucket enum entry has a cpiBucketName() label (which
     toJson() surfaces) and a row in the README's CPI-bucket table,
     and vice versa — a bucket nobody can read about or parse out of
     the JSON is dead observability.
  6. Every data member of the machine-config structs (OooConfig,
     RefConfig, MemConfig, TlbConfig, LatencyTable) is named exactly
     once, as `("name", c.name`, in its struct's walkConfig() next to
     it. sweepConfigKey() and validate() read the walks, so a member
     missing from one would alias store entries of runs that set it
     and escape its rule. Their count is pinned
     (CONFIG_MEMBERS_PINNED), so every new setting is a visible
     decision.
  7. Every OccStruct enum entry has an occStructName() label and a
     row in the README's occupancy-structure table, and vice versa;
     and both telemetry renderers (toJson() in simresult.cc, the
     --stats dump in statsdump.cc) iterate via occStructName(), so
     every registered occupancy distribution reaches both output
     surfaces — a structure nobody can read about, parse out of the
     JSON, or grep out of the stats dump is dead telemetry.

Exit code: 0 clean, 1 violations (each printed as "LINT: ...").
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Files allowed to own raw storage (none currently need to; add the
# slab/queue implementation here if it ever manages raw memory).
NAKED_NEW_ALLOWED: set = set()

errors = []


def err(msg: str) -> None:
    errors.append(msg)
    print(f"LINT: {msg}")


# ---------------------------------------------------------------
# Rules 1 + 2: figure registry <-> goldens, both directions.
# ---------------------------------------------------------------

def registered_figures() -> list:
    """Figure names, from the registry table."""
    src = (ROOT / "src/harness/figures.cc").read_text()
    # Parse only the figureRegistry() body: other tables in the file
    # also hold brace-initialized string literals.
    m = re.search(r"figureRegistry\(\)\s*\{(.*)", src, re.S)
    if not m:
        err("figureRegistry() not found in src/harness/figures.cc")
        return []
    # Each entry opens with its short name: {"fig5", "Figure 5: ...",
    return re.findall(r'\{"([a-z0-9]+)",', m.group(1))


figures = registered_figures()
if len(figures) < 10:
    err(f"figure registry parse found only {len(figures)} entries "
        "in src/harness/figures.cc; the parser is broken")

golden_dir = ROOT / "tests/golden"
goldens = {p.stem for p in golden_dir.glob("*.txt")}

for name in sorted(figures):
    if name not in goldens:
        err(f"figure '{name}' has no golden "
            f"(tests/golden/{name}.txt); capture it with "
            "scripts/check_goldens.sh --update")

for name in sorted(goldens):
    if name not in figures:
        err(f"orphan golden tests/golden/{name}.txt matches no "
            "registered figure")

# ---------------------------------------------------------------
# Rule 3: every SimResult data member named in walkFields(), every
# derived accessor written by toJson().
# ---------------------------------------------------------------

# Member functions of SimResult that the accessor regex sees but
# that are serialization machinery, not derived metrics.
SIMRESULT_NON_FIELDS = {"toJson"}


def simresult_fields() -> tuple:
    """(data members, derived accessors) of struct SimResult."""
    src = (ROOT / "src/mem/simresult.hh").read_text()
    m = re.search(r"struct SimResult\s*\{(.*)\n\};", src, re.S)
    if not m:
        err("cannot find struct SimResult in src/mem/simresult.hh")
        return [], []
    body = m.group(1)
    body = re.sub(r"/\*.*?\*/", "", body, flags=re.S)
    body = re.sub(r"//[^\n]*", "", body)
    # Class-level constants (kResultSchemaVersion) are not result
    # fields.
    body = re.sub(r"^\s*static [^;]*;", "", body, flags=re.M)
    stored = []
    # Data members: "type name = init;" or "type name;" (incl. the
    # braced-init arrays), one per line.
    for dm in re.finditer(
            r"^\s+[A-Za-z_][\w:<>, ]*?\s+(\w+)\s*(?:=[^;]*|\{\})?;",
            body, re.M):
        stored.append(dm.group(1))
    # Derived accessors: "type name() const".
    derived = [fm.group(1)
               for fm in re.finditer(r"(\w+)\(\)\s*const", body)
               if fm.group(1) not in SIMRESULT_NON_FIELDS]
    return stored, derived


stored_fields, derived_fields = simresult_fields()
fields = stored_fields + derived_fields
if len(fields) < 20:
    err(f"SimResult parse found only {len(fields)} fields; the "
        "parser is broken")

renderer = (ROOT / "src/mem/simresult.cc").read_text()
walk = re.search(r"\nwalkFields\(.*?\n\}\n", renderer, re.S)
if not walk:
    err("walkFields() not found in src/mem/simresult.cc")
walk_body = walk.group(0) if walk else ""
# toJson() ends its record with derivedTail(), defined just above it.
tail_at = renderer.find("\nderivedTail(")
from_json_at = renderer.find("SimResult::fromJson")
if tail_at < 0 or from_json_at < tail_at or \
        "SimResult::toJson" not in renderer[tail_at:from_json_at]:
    err("expected derivedTail() and SimResult::toJson() before "
        "SimResult::fromJson() in src/mem/simresult.cc")
to_json_body = renderer[tail_at:from_json_at] if tail_at >= 0 else ""

for field in stored_fields:
    if not re.search(r'\(\s*"' + field + r'",\s*r\.' + field + r"\b",
                     walk_body):
        err(f"SimResult field '{field}' is not named in walkFields() "
            "in src/mem/simresult.cc — toJson() would not write it "
            "and a result-store hit would silently drop it")
for field in derived_fields:
    if f'\\"{field}\\"' not in to_json_body:
        err(f"derived SimResult field '{field}' is not written by "
            "SimResult::toJson() in src/mem/simresult.cc")

# ---------------------------------------------------------------
# Rule 4: no naked new/delete outside dedicated storage code.
# ---------------------------------------------------------------

NEW_RE = re.compile(r"\bnew\b\s+[A-Za-z_(]")
DELETE_RE = re.compile(r"\bdelete(\[\])?\b\s+[A-Za-z_]")

for sub in ("src", "bench", "examples"):
    for path in sorted((ROOT / sub).rglob("*")):
        if path.suffix not in (".cc", ".hh", ".cpp", ".hpp"):
            continue
        rel = path.relative_to(ROOT).as_posix()
        if rel in NAKED_NEW_ALLOWED:
            continue
        text = path.read_text()
        text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
        for lineno, line in enumerate(text.splitlines(), 1):
            code = line.split("//", 1)[0].replace("= delete", "")
            if NEW_RE.search(code) or DELETE_RE.search(code):
                err(f"{rel}:{lineno}: naked new/delete — use the "
                    "slab, a container, or a smart pointer")

# ---------------------------------------------------------------
# Rule 5: CpiBucket enum <-> cpiBucketName() labels <-> README
# bucket table, all three in sync, both directions.
# ---------------------------------------------------------------

def cpi_enum_entries() -> list:
    """CpiBucket enumerators (minus the NumBuckets sentinel)."""
    src = (ROOT / "src/mem/simresult.hh").read_text()
    m = re.search(r"enum class CpiBucket[^{]*\{(.*?)\}", src, re.S)
    if not m:
        err("enum class CpiBucket not found in src/mem/simresult.hh")
        return []
    body = re.sub(r"//[^\n]*", "", m.group(1))
    entries = re.findall(r"\b([A-Z]\w*)\b", body)
    return [e for e in entries if e != "NumBuckets"]


def cpi_name_labels() -> dict:
    """Enumerator -> label string, from cpiBucketName()'s switch."""
    src = (ROOT / "src/mem/simresult.cc").read_text()
    m = re.search(r"cpiBucketName\(.*?\n\}", src, re.S)
    if not m:
        err("cpiBucketName() not found in src/mem/simresult.cc")
        return {}
    return dict(re.findall(
        r'case CpiBucket::(\w+):\s*return "([a-z-]+)"', m.group(0)))


def readme_bucket_labels() -> list:
    """Bucket labels from the README's CPI-bucket table."""
    text = (ROOT / "README.md").read_text()
    m = re.search(r"### CPI buckets\n(.*?)(?:\n#|\Z)", text, re.S)
    if not m:
        err("README.md has no '### CPI buckets' section")
        return []
    return re.findall(r"^\| `([a-z-]+)` \|", m.group(1), re.M)


cpi_entries = cpi_enum_entries()
cpi_labels = cpi_name_labels()
readme_labels = readme_bucket_labels()

for entry in cpi_entries:
    if entry not in cpi_labels:
        err(f"CpiBucket::{entry} has no label in cpiBucketName() "
            "(src/mem/simresult.cc)")
for entry in cpi_labels:
    if entry not in cpi_entries:
        err(f"cpiBucketName() labels unknown bucket "
            f"CpiBucket::{entry}")
for entry, label in sorted(cpi_labels.items()):
    if label not in readme_labels:
        err(f"CPI bucket '{label}' (CpiBucket::{entry}) missing "
            "from the README's '### CPI buckets' table")
for label in readme_labels:
    if label not in cpi_labels.values():
        err(f"README CPI-bucket table row '{label}' matches no "
            "cpiBucketName() label")

# ---------------------------------------------------------------
# Rule 6: every machine-config data member is named once in its
# struct's walkConfig().
# ---------------------------------------------------------------

# Each setting doubles the configurations tests must cover. A new
# field fails lint until this pin moves in the same commit, with the
# reason recorded in CHANGES.md.
CONFIG_MEMBERS_PINNED = 41

CONFIG_STRUCTS = [
    ("OooConfig", "src/core/config.hh"),
    ("RefConfig", "src/ref/refsim.hh"),
    ("MemConfig", "src/mem/memsystem.hh"),
    ("TlbConfig", "src/mem/tlb.hh"),
    ("LatencyTable", "src/isa/latency.hh"),
]


def config_members(struct: str, src: str, rel: str) -> list:
    """Data-member names of one config struct."""
    m = re.search(r"struct " + struct + r"\s*\{(.*?)\n\};", src, re.S)
    if not m:
        err(f"cannot find struct {struct} in {rel}")
        return []
    body = m.group(1)
    body = re.sub(r"/\*.*?\*/", "", body, flags=re.S)
    body = re.sub(r"//[^\n]*", "", body)
    # Data members always come first in these structs; truncate at
    # the first inline member-function header (a line with "(" that
    # is neither a declaration ending in ";" nor a member
    # initializer containing "=") so function bodies — whose
    # "return t;" lines would fool the declarator regex — are never
    # scanned.
    lines = []
    for line in body.splitlines():
        if "(" in line and "=" not in line and ";" not in line:
            break
        lines.append(line)
    body = "\n".join(lines)
    # Member declarations left: "type name;", "type name = init;".
    return [dm.group(1) for dm in re.finditer(
        r"^\s+[A-Za-z_][\w:<>,*& ]*?[\s*&](\w+)\s*(?:=[^;]*|\{\})?;",
        body, re.M)]


def config_walk(struct: str, src: str, rel: str) -> list:
    """(name, member) of each entry in the struct's walkConfig()."""
    m = re.search(r"template <ConfigOf<" + struct +
                  r"> \w+, typename \w+>\s*void\s*walkConfig\(.*?\n\}",
                  src, re.S)
    if not m:
        err(f"no walkConfig() for {struct} in {rel}")
        return []
    return re.findall(r'\(\s*"(\w+)",\s*\w+\.(\w+)\b', m.group(0))


config_member_count = 0
for struct, rel in CONFIG_STRUCTS:
    src = (ROOT / rel).read_text()
    members = config_members(struct, src, rel)
    # A parser that misses members trips the pinned total below;
    # this only catches one that finds none at all.
    if not members:
        err(f"{struct} parse found no members in {rel}; the parser "
            "is broken")
    config_member_count += len(members)
    walk = config_walk(struct, src, rel)
    for name, member in walk:
        if name != member:
            err(f"{struct}'s walkConfig() ({rel}) names member "
                f"'{member}' as \"{name}\"")
    named = [member for _, member in walk]
    for member in members:
        if member not in named:
            err(f"{struct}::{member} ({rel}) is missing from its "
                "walkConfig() — sweepConfigKey() and validate() read "
                "the walk, so runs differing only in it would alias "
                "one result-store entry; add it as field() (keyed) "
                "or unkeyed() (observe-only)")
        elif named.count(member) > 1:
            err(f"{struct}::{member} ({rel}) is named "
                f"{named.count(member)} times in its walkConfig()")
if config_member_count != CONFIG_MEMBERS_PINNED:
    err(f"the config structs have {config_member_count} members, "
        f"pinned at {CONFIG_MEMBERS_PINNED}: move CONFIG_MEMBERS_PINNED "
        "in scripts/lint_oova.py in the same commit and record why in "
        "CHANGES.md")

# ---------------------------------------------------------------
# Rule 7: OccStruct enum <-> occStructName() labels <-> README
# occupancy table, all three in sync, both directions; and both
# telemetry renderers must emit through occStructName().
# ---------------------------------------------------------------

def occ_enum_entries() -> list:
    """OccStruct enumerators (minus the NumStructs sentinel)."""
    src = (ROOT / "src/common/stats.hh").read_text()
    m = re.search(r"enum class OccStruct[^{]*\{(.*?)\}", src, re.S)
    if not m:
        err("enum class OccStruct not found in src/common/stats.hh")
        return []
    body = re.sub(r"//[^\n]*", "", m.group(1))
    entries = re.findall(r"\b([A-Z]\w*)\b", body)
    return [e for e in entries if e != "NumStructs"]


def occ_name_labels() -> dict:
    """Enumerator -> label string, from occStructName()'s switch."""
    src = (ROOT / "src/common/stats.cc").read_text()
    m = re.search(r"occStructName\(.*?\n\}", src, re.S)
    if not m:
        err("occStructName() not found in src/common/stats.cc")
        return {}
    return dict(re.findall(
        r'case OccStruct::(\w+):\s*return "([a-z-]+)"', m.group(0)))


def readme_occ_labels() -> list:
    """Structure labels from the README's occupancy table."""
    text = (ROOT / "README.md").read_text()
    m = re.search(r"#### Occupancy structures\n(.*?)(?:\n#|\Z)",
                  text, re.S)
    if not m:
        err("README.md has no '#### Occupancy structures' section")
        return []
    return re.findall(r"^\| `([a-z-]+)` \|", m.group(1), re.M)


occ_entries = occ_enum_entries()
occ_labels = occ_name_labels()
occ_readme = readme_occ_labels()

for entry in occ_entries:
    if entry not in occ_labels:
        err(f"OccStruct::{entry} has no label in occStructName() "
            "(src/common/stats.cc)")
for entry in occ_labels:
    if entry not in occ_entries:
        err(f"occStructName() labels unknown structure "
            f"OccStruct::{entry}")
for entry, label in sorted(occ_labels.items()):
    if label not in occ_readme:
        err(f"occupancy structure '{label}' (OccStruct::{entry}) "
            "missing from the README's '#### Occupancy structures' "
            "table")
for label in occ_readme:
    if label not in occ_labels.values():
        err(f"README occupancy-table row '{label}' matches no "
            "occStructName() label")

# Both renderers must derive their per-structure keys from
# occStructName(): that is what guarantees all kNumOccStructs
# distributions reach the JSON and the --stats dump (and pick up new
# enum entries automatically).
for rel in ("src/mem/simresult.cc", "src/harness/statsdump.cc"):
    if "occStructName" not in (ROOT / rel).read_text():
        err(f"{rel} does not emit occupancy telemetry through "
            "occStructName() — a new OccStruct entry would silently "
            "miss this output surface")

if errors:
    print(f"lint_oova: {len(errors)} violation(s)")
    sys.exit(1)
print("lint_oova: all checks passed "
      f"({len(figures)} figures, {len(fields)} SimResult fields, "
      f"{len(cpi_entries)} CPI buckets, "
      f"{config_member_count} config members walked, "
      f"{len(occ_entries)} occupancy structures)")
