#!/usr/bin/env python
"""Beyond closed-shell RHF: UHF symmetry breaking on H2.

The paper frames fast Fock builds as the foundation for everything above
them; this demo runs the open-shell driver along the H2 dissociation
curve: RHF fails at stretched geometries, UHF with guess mixing finds
the broken-symmetry solution -- at the price of spin contamination
(<S^2> climbs from the singlet's 0 to 1, an equal singlet-triplet mix),
and the triplet itself meets it at dissociation.

Usage:  python examples/beyond_rhf.py
"""


from repro.chem import h2
from repro.integrals.oneelec import overlap
from repro.scf import RHF, UHF


def main() -> None:
    print("H2 dissociation: RHF vs broken-symmetry UHF vs the triplet (hartree)")
    print(f"{'R (A)':>6s} {'RHF':>12s} {'UHF':>12s} {'UHF-RHF':>10s} "
          f"{'<S^2>':>6s} {'triplet':>12s}")
    for r in (0.74, 1.2, 1.8, 2.5, 3.5):
        e_rhf = RHF(h2(r)).run().energy
        uhf = UHF(h2(r), guess_mix=0.4)
        res = uhf.run()
        s2 = res.s_squared(overlap(uhf.basis), uhf.n_alpha, uhf.n_beta)
        e_triplet = UHF(h2(r), multiplicity=3).run().energy
        print(f"{r:6.2f} {e_rhf:12.6f} {res.energy:12.6f} "
              f"{res.energy - e_rhf:10.6f} {s2:6.3f} {e_triplet:12.6f}")
    print("UHF detaches below RHF once the bond stretches -- the correct")
    print("dissociation limit (two H atoms: 2 x -0.4666 = -0.9332).")


if __name__ == "__main__":
    main()
