"""The standard action on the tight spectrum and its groupoid of germs.

Run with:  python3 demos/03_standard_action_and_germs.py
"""

import tightgroupoid as tg
from tightgroupoid import report

b2 = tg.build_fixture("B2")
spectrum = tg.tight_spectrum(b2)
action = tg.standard_action(spectrum)

print("B2 acts on", action.points, "tight filters:",
      [action.label_of(x) for x in range(action.points)])
for s in b2.elements():
    moves = {action.label_of(x): action.label_of(action.apply(s, x))
             for x in sorted(action.domain(s))}
    print(f"  {b2.name_of(s):>4}: {moves}")

print("\nfixed points of e12:", sorted(tg.fixed_points(action, 2)))
print("action is topologically free:", tg.is_topologically_free(action))
print("action is irreducible:", tg.is_irreducible(action))

# The groupoid of germs identifies elements that agree near a point.
g = tg.build_germ_groupoid(action)
print("\ngroupoid:", g)
for i, (s, x) in enumerate(g.arrows):
    kind = "unit" if i in g.units else "arrow"
    print(f"  [{b2.name_of(s)}, {action.label_of(x)}]  "
          f"{action.label_of(g.source[i])} -> {action.label_of(g.target[i])}  ({kind})")

print("\nisotropy bundle equals the units:", g.isotropy_bundle() == g.units)
print("Hausdorff:", g.is_hausdorff())
print("minimal:", g.is_minimal())
print("locally contracting:", g.locally_contracting_verdict())

# Z2z keeps a nontrivial loop: its one point carries an order two
# isotropy group, which kills essential principality.
z2z = tg.build_fixture("Z2z")
gz = tg.build_germ_groupoid(tg.standard_action(tg.tight_spectrum(z2z)))
print("\nZ2z groupoid essentially principal:", gz.is_essentially_principal())

print("\nDOT export of the B2 groupoid:")
print(report.emit_dot(g, "B2"))
