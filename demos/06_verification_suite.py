"""Running the verification suite programmatically.

The suite mirrors the headline calculations: each case is data naming an
invariant, a construction of the registry (or several, labelled), and the
exact expected value.  `run_suite` takes either a suite name ("paper",
"stretch", "all") or a glob over case ids; the report is JSON-serializable
and deterministic.  The full required suite, `finsub verify --suite
paper`, takes about 0.7 s of wall time on a shared 2-core x86-64 machine
(Python 3.11, three runs); here we run a quick slice.

The same suite is available from the command line:

    finsub verify --suite paper --emit json
"""

from finsub.verify import catalog, run_case, run_suite

print(f"catalog: {len(catalog())} cases, "
      f"{sum(1 for c in catalog() if c.tag == 'required')} required\n")

report = run_suite("bott-*")
for case in report.cases:
    print(f"{case.id:<24} {case.status:<6} {case.seconds:6.2f}s "
          f"cells={case.cells}")
print("slice passed:", report.passed)

# individual cases can be run directly
case = next(c for c in catalog() if c.id == "bar-sub2-s1-rp2")
result = run_case(case)
print(f"\n{case.id}: {result.status}")
print("expected:", result.expected)
print("computed:", result.computed)
