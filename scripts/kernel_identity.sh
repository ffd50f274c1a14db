#!/bin/sh
# Kernel identity: are the wide frame loops of two builds the same code?
#
#   scripts/kernel_identity.sh <parent-binary> <change-binary>
#
# Disassembles both binaries, normalises every instantiation of the wide
# frame loop (addresses, symbol hashes, rip-relative operands and trailing
# alignment padding removed) and compares the two sets of bodies. The loop
# is `batch::wide_frame_loop`, generic over the architecture; before the
# two architectures shared one loop it was the pair `replay_ml_batched` /
# `replay_pull_batched`, and a binary of either vintage is understood.
#
# The legacy symbol mangling drops type parameters, so each instantiation
# is named from the `DW_AT_name` its debug info gives the symbol and
# reduced to the same five facts whichever vintage it is: filter, request
# iterator, levels (`pull`, `ml TlbOff`, `ml TlbOn` — the old pair's name
# plus its TLB parameter, or the merged loop's `tap::Pull` /
# `tap::MultiLevel<..>` parameter), sink and admission mode. Symbol hashes
# differ between checkouts, so identity is decided by body, not by name: a
# parent body that appears in the change is identical. The rest are paired
# with the change's instantiation of the same five facts — so a pull loop
# is only ever compared with a pull loop, a `Logged` one with a `Logged`
# one — and listed with their instruction delta; a symbol
# without debug info falls back to its kind (pull or multi-level) and the
# nearest instruction count. Instantiations only the change has (a new
# mode) are counted as added. Last comes one line per sink parameter
# (`TelOff`, `MissLog`, `Logged`; `TelOn` and `Timed<..>` in binaries that
# predate the observer stream) with how many of the parent's
# instantiations under it are identical and how many differ.
#
# Exit status: 0 when every parent instantiation has an identical body in
# the change, 1 otherwise, 2 on usage errors. ROADMAP item 1 makes this an
# acceptance step: a PR that adds a mode to the wide loops runs it on the
# two `mltc-benchmark` binaries (verify skill: "To compare two commits").
set -eu

if [ "$#" -ne 2 ] || [ ! -r "$1" ] || [ ! -r "$2" ]; then
    echo "usage: $0 <parent-binary> <change-binary>" >&2
    exit 2
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
kernels='replay_ml_batched\|replay_pull_batched\|wide_frame_loop'
for side in parent change; do
    objdump -d --no-show-raw-insn "$1" >"$tmp/$side.s"
    # `DW_AT_linkage_name` is followed by `DW_AT_name`, which spells the
    # type parameters out.
    objdump --dwarf=info "$1" 2>/dev/null |
        grep -A1 "DW_AT_linkage_name.*\($kernels\)17h" >"$tmp/$side.dwarf" || true
    shift
done

python3 - "$tmp/parent" "$tmp/change" <<'EOF'
import collections
import re
import signal
import sys

signal.signal(signal.SIGPIPE, signal.SIG_DFL)  # `| head` is not an error

# Symbol-name fragment -> kind; `None` = the levels parameter says.
KERNELS = {"replay_ml_batched": "ml", "replay_pull_batched": "pull", "wide_frame_loop": None}
HEAD = re.compile(r"^[0-9a-f]+ <(.+)>:$")
# Per-build symbol decoration: the legacy mangling's hash and the suffix
# thin LTO gives a promoted local symbol.
HASH = re.compile(r"17h[0-9a-f]{16}E|\.llvm\.[0-9]+")
LTO_SUFFIX = re.compile(r"\.llvm\.[0-9]+")
PADDING = re.compile(r"^(nop|int3|xchg\s+%ax,%ax|(data16 |cs )*nopw?\b.*)$")
PATH = re.compile(r"\b(?:\w+::)+")


def type_parameters(name):
    """Top-level generic arguments of a `DW_AT_name`, module paths dropped."""
    args, depth, start = [], 0, name.index("<") + 1
    for i, c in enumerate(name):
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                args.append(name[start:i])
        elif c == "," and depth == 1:
            args.append(name[start:i])
            start = i + 1
    return [PATH.sub("", a.strip()) for a in args]


def instantiations(path):
    """Mangled symbol -> (kind, instantiation), from the debug info."""
    found, symbol = {}, None
    for line in open(path, errors="replace"):
        value = line.rsplit("): ", 1)[-1].strip()
        if "DW_AT_linkage_name" in line:
            symbol = value
        elif "DW_AT_name" in line and symbol and "<" in value:
            args = type_parameters(value)
            kind = next(v for k, v in KERNELS.items() if k in symbol)
            if kind == "pull":  # <F, I, Te, Ad>
                levels, rest = "pull", args[2:]
            elif kind == "ml":  # <F, I, Tl, Te, Ad>
                levels, rest = "ml " + args[2], args[3:]
            else:  # <F, I, Lv, Te, Ad>
                inner = re.fullmatch(r"MultiLevel<(.+)>", args[2])
                levels, rest = ("ml " + inner.group(1) if inner else "pull"), args[3:]
            found[symbol] = (levels.split()[0], (args[0], args[1], levels, *rest))
            symbol = None
    return found


def kernels(stem):
    """(kind, instantiation or None, body) of every wide-loop symbol of a side."""
    named = instantiations(stem + ".dwarf")
    out, name, body = [], None, []

    def close():
        if name is None:
            return
        while body and PADDING.match(body[-1]):
            body.pop()
        kind, inst = named.get(LTO_SUFFIX.sub("", name), (None, None))
        kind = kind or next(v for k, v in KERNELS.items() if k in name)
        if kind is None:
            sys.exit(f"no debug info names the type parameters of {name}")
        out.append((kind, inst, tuple(body)))

    for line in open(stem + ".s", errors="replace"):
        line = line.rstrip("\n")
        m = HEAD.match(line)
        if m:
            close()
            name = m.group(1) if any(k in m.group(1) for k in KERNELS) else None
            body = []
            continue
        if name is None or "\t" not in line:
            continue
        insn = line.split("\t", 1)[1].strip()
        insn = insn.split("#", 1)[0].rstrip()  # rip-relative target comment
        insn = re.sub(r"-?0x[0-9a-f]+\(%rip\)", "X(%rip)", insn)
        # Branch and call targets: keep `<symbol+offset>`, drop the address;
        # the function's own (hashed) name becomes `self`.
        insn = re.sub(r"\b[0-9a-f]+ <", "<", insn).replace(name, "self")
        body.append(HASH.sub("", insn))
    close()
    return out


parent, change = kernels(sys.argv[1]), kernels(sys.argv[2])
if not parent or not change:
    sys.exit("no wide frame loop symbols found (stripped binary?)")

left = collections.Counter(body for _, _, body in change)
differing = []
# Sink parameter -> [identical, differing] parent instantiations.
by_sink = collections.defaultdict(lambda: [0, 0])
for k in parent:
    same = left[k[2]] > 0
    if same:
        left[k[2]] -= 1
    else:
        differing.append(k)
    by_sink[k[1][3] if k[1] else "(no debug info)"][0 if same else 1] += 1
identical = len(parent) - len(differing)
unmatched = []
for k in change:
    if left[k[2]] > 0:
        left[k[2]] -= 1
        unmatched.append(k)


def label(kind, inst):
    return f"<{', '.join(inst)}>" if inst else kind


print(f"wide-loop instantiations: parent {len(parent)}, change {len(change)}")
print(f"identical to the parent's: {identical} of {len(parent)}")
print(f"differing: {len(differing)}")
for kind, inst, body in sorted(differing, key=lambda k: (k[0], k[1] or (), len(k[2]))):
    # The change's instantiation of the same facts; failing that, the
    # nearest unmatched one of the same kind by instruction count.
    same = [u for u in unmatched if inst and u[1] == inst]
    near = min(
        same or (u for u in unmatched if u[0] == kind and not (inst and u[1])),
        key=lambda u: abs(len(u[2]) - len(body)),
        default=None,
    )
    if near is None:
        print(f"  {label(kind, inst)}: {len(body)} instructions -> gone")
        continue
    unmatched.remove(near)
    n = len(near[2])
    print(f"  {label(kind, inst)}: {len(body)} -> {n} instructions ({n - len(body):+d})")
print(f"added by the change: {len(unmatched)}")
for kind, inst, body in sorted(unmatched, key=lambda k: (k[0], k[1] or (), len(k[2]))):
    print(f"  {label(kind, inst)}: {len(body)} instructions")
print("by sink (parent instantiations):")
for sink, (same, diff) in sorted(by_sink.items()):
    print(f"  {sink}: {same} identical, {diff} differing")
sys.exit(1 if differing else 0)
EOF
