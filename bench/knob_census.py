#!/usr/bin/env python3
"""List the config fields that no code sets.

    python3 bench/knob_census.py [ROOT]

Reads every `struct ...Config` / `struct ...Params` in ROOT/src/**/*.h
(default ROOT: the repo this script lives in), nested ones included, and
lists each data member. A field counts as set when some .h/.cpp file under
src/, bench/, examples/, tests/ or perfbench/ writes `.f =` or `->f =` (not
`==`), or reaches through it with `.f.`, as in `cfg.agent.x = 1`. A field
nothing sets has one working value and belongs in a named constant.

Prints the struct, field and unset counts, then one `Struct::field (header)`
line per unset field, and exits 1 if any field is unset.

The census matches names, not types: a name that two structs share (such as
`seed`) counts as set for both when either is set, and `.f.` counts a read
through `f` as a write. The unset count is therefore a floor, not the exact
number of fields with one value. Defaulted constructor parameters (such as a
window size no caller passes) are outside its reach: it reads struct fields
only.
"""
import os
import re
import sys

SCAN_DIRS = ("src", "bench", "examples", "tests", "perfbench")
CONFIG_STRUCT = re.compile(r"\bstruct\s+(\w*(?:Config|Params))\s*(?:final\s*)?\{")
SCOPE = re.compile(r"\b(?:class|struct)\s+(\w+)[^;{()]*\{")
NOT_FIELD = re.compile(r"^\s*(?:static|using|friend|enum|struct|class|union|"
                       r"typedef|template|public|private|protected)\b")


def strip_comments(text):
    """Blanks comments and the insides of string and character literals,
    keeping offsets and newlines. `1'000` is a digit separator, not a
    literal."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        prev = text[i - 1] if i else " "
        if text.startswith("//", i):
            end = text.find("\n", i)
            start, end = i, n if end < 0 else end
        elif text.startswith("/*", i):
            end = text.find("*/", i + 2)
            start, end = i, n if end < 0 else end + 2
        elif c == '"' and prev == "R":
            delim = text[i + 1:text.find("(", i)]
            end = text.find(")" + delim + '"', i)
            start, end = i + 1, n if end < 0 else end + len(delim) + 1
        elif c == '"' or (c == "'" and not prev.isalnum()):
            end = i + 1
            while end < n and text[end] != c:
                end += 2 if text[end] == "\\" else 1
            start = i + 1
        else:
            i += 1
            continue
        for k in range(start, min(end, n)):
            if out[k] != "\n":
                out[k] = " "
        i = end + 1
    return "".join(out)


def match_brace(text, open_at):
    """Offset of the `}` that closes the `{` at `open_at`."""
    depth = 0
    for i in range(open_at, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(text)


def statements(body):
    """Splits a struct body into its top-level member declarations."""
    out, start, depth, i = [], 0, 0, 0
    while i < len(body):
        c = body[i]
        if c in "{(":
            depth += 1
        elif c in "})":
            depth -= 1
            if depth == 0 and c == "}":
                rest = body[i + 1:].lstrip()
                if not rest.startswith((";", ",")):
                    out.append(body[start:i + 1])  # member function body
                    start = i + 1
        elif c == ";" and depth == 0:
            out.append(body[start:i])
            start = i + 1
        i += 1
    return out


def drop_templates(decl):
    """Removes `<...>` argument lists, so `std::function<void()> f` has no `(`."""
    prev = None
    while prev != decl:
        prev = decl
        decl = re.sub(r"<[^<>]*>", "", decl)
    return decl


def field_name(stmt):
    """The member's name, or None when `stmt` declares no data member."""
    if NOT_FIELD.match(stmt) or not stmt.strip():
        return None
    decl = re.split(r"(?<![=!<>])=(?!=)", stmt, maxsplit=1)[0]
    decl = drop_templates(decl)
    brace = decl.find("{")
    if brace >= 0:
        decl = decl[:brace]  # `T x{...}` brace initializer
    if "(" in decl or "operator" in decl:
        return None
    decl = re.sub(r"\[[^\]]*\]", "", decl)
    names = re.findall(r"[A-Za-z_]\w*", decl)
    return names[-1] if len(names) >= 2 else None


def config_fields(root):
    """Yields (qualified struct, field, header path) for every field."""
    src = os.path.join(root, "src")
    for dirpath, _, files in sorted(os.walk(src)):
        for name in sorted(files):
            if not name.endswith(".h"):
                continue
            path = os.path.join(dirpath, name)
            with open(path, encoding="utf-8") as f:
                text = strip_comments(f.read())
            scopes = []
            for m in SCOPE.finditer(text):
                open_at = m.end() - 1
                scopes.append((open_at, match_brace(text, open_at), m.group(1)))
            rel = os.path.relpath(path, root)
            for m in CONFIG_STRUCT.finditer(text):
                open_at = m.end() - 1
                close = match_brace(text, open_at)
                outer = [s for (o, c, s) in scopes if o < open_at and close < c]
                qual = "::".join(outer + [m.group(1)])
                for stmt in statements(text[open_at + 1:close]):
                    field = field_name(stmt)
                    if field:
                        yield qual, field, rel


def scanned_text(root):
    chunks = []
    for top in SCAN_DIRS:
        for dirpath, _, files in sorted(os.walk(os.path.join(root, top))):
            for name in sorted(files):
                if name.endswith((".h", ".cpp")):
                    with open(os.path.join(dirpath, name),
                              encoding="utf-8") as f:
                        chunks.append(strip_comments(f.read()))
    return "\n".join(chunks)


def is_set(field, text):
    pattern = (r"(?:\.|->)" + re.escape(field) + r"\s*=(?!=)|\."
               + re.escape(field) + r"\.")
    return re.search(pattern, text) is not None


def main(argv):
    root = argv[1] if len(argv) > 1 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    fields = list(config_fields(root))
    text = scanned_text(root)
    unset = [(s, f, h) for (s, f, h) in fields if not is_set(f, text)]
    structs = {s for (s, _, _) in fields}
    print(f"structs: {len(structs)}  fields: {len(fields)}  "
          f"unset: {len(unset)}")
    for s, f, h in unset:
        print(f"{s}::{f} ({h})")
    return 1 if unset else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
