"""Build one workload's system in a fresh interpreter; its wall time is setup_s.

Usage: python3 setup_child.py N_SITES INITIAL_STATE
"""

import sys


def main(n_sites: int, initial_state: str) -> None:
    from otocsim import Propagator, all_up_state, build_xy_chain, maximally_mixed_state

    Propagator.from_hamiltonian(build_xy_chain(n_sites))
    {"all_up": all_up_state, "maximally_mixed": maximally_mixed_state}[initial_state](n_sites)


if __name__ == "__main__":
    main(int(sys.argv[1]), sys.argv[2])
