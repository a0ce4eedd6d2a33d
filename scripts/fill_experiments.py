#!/usr/bin/env python3
"""Fill EXPERIMENTS.md placeholders from a run_all output file.

Usage: python3 scripts/fill_experiments.py run_all_output.txt
Rewrites EXPERIMENTS.md in place. Idempotent only on a file that still
contains the FILL_* placeholders.
"""
import re
import sys


def section(text, name):
    """Extract the lines of one `== name ==` section."""
    pat = rf"== {re.escape(name)} ==\n(.*?)(?=\n== |\Z)"
    m = re.search(pat, text, re.S)
    return m.group(1) if m else ""


def table_rows(sec):
    """Parse `| a | b |` rows of an ASCII table (skipping separators)."""
    rows = []
    for line in sec.splitlines():
        if line.startswith("|"):
            cells = [c.strip() for c in line.strip("|\n").split("|")]
            rows.append(cells)
    return rows


def main():
    run = open(sys.argv[1]).read()
    exp = open("EXPERIMENTS.md").read()

    # Table 1. Each `…Q` token extends its exec-time token, so replace
    # the longer one first.
    t1 = table_rows(section(run, "Table 1"))
    for row in t1:
        if row and row[0] == "PCG":
            exp = exp.replace("FILL_T1_PCG", row[1])
        elif row and row[0] == "Tompson":
            exp = exp.replace("FILL_T1_TOMQ", row[2]).replace("FILL_T1_TOM", row[1])
        elif row and row[0] == "Yang":
            exp = exp.replace("FILL_T1_YANGQ", row[2]).replace("FILL_T1_YANG", row[1])

    # Figure 3 counts.
    f3 = section(run, "Figure 3")
    m = re.search(r"(\d+) models generated, (\d+) Pareto candidates", f3)
    if m:
        exp = exp.replace("FILL_F3_MODELS", m.group(1)).replace(
            "FILL_F3_CANDS", m.group(2)
        )

    # Figure 6 correlations.
    f6 = section(run, "Figure 6")
    m = re.search(r"r_p = ([-\d.]+) .*r_s = ([-\d.]+)", f6)
    if m:
        exp = exp.replace("FILL_F6_RP", m.group(1)).replace("FILL_F6_RS", m.group(2))

    # Figure 8 table verbatim.
    f8 = section(run, "Figure 8")
    lines = [l for l in f8.splitlines() if l.startswith(("|", "+")) or "mean Smart" in l]
    exp = exp.replace("FILL_F8_TABLE", "```\n" + "\n".join(lines) + "\n```")

    # Table 2 rows.
    t2 = table_rows(section(run, "Table 2"))
    data = [r for r in t2 if len(r) >= 4 and r[0] not in ("Grid", "")]
    paper_rows = ["128²", "256²", "512²", "768²", "1024²"]
    for label, r in zip(paper_rows, data):
        # Replace the first remaining `FILL | FILL` pair on the row.
        exp = re.sub(
            rf"(\| {re.escape(label)} \|[^\n]*\|) FILL \| FILL \|",
            rf"\1 {r[2]} | {r[3]} |",
            exp,
        )

    # Table 4 rows.
    t4 = table_rows(section(run, "Table 4"))
    for row in t4:
        if len(row) >= 3 and row[0] in ("PCG", "Tompson", "Smart-fluidnet"):
            exp = re.sub(
                rf"(\| {re.escape(row[0])} \|[^\n]*\|) FILL \| FILL \|",
                rf"\1 {row[1]} | {row[2]} |",
                exp,
            )

    open("EXPERIMENTS.md", "w").write(exp)
    left = exp.count("FILL")
    print(f"done; {left} placeholders remaining")


if __name__ == "__main__":
    main()
