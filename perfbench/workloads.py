"""The benchmark's workloads: qflip command sequences and what they must produce.

Each workload is a planted ``iid_bitflip`` device run through the qflip
CLI from one seed. Generation is serial (no ``--workers``), so every
number measures one process at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

# seed used while writing a change, and a second one held out to check it
DEFAULT_SEED = 11
HELDOUT_SEED = 23

UNMITIGATED = "unmitigated"
MEM = "MEM"
PROPOSED = "proposed"
PROPOSED_PAVG = "proposed_pavg"


def depth_text(depths) -> str:
    return ",".join(str(d) for d in depths)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int
    K: int
    q: float  # per-qubit flip probability per gate layer
    readout: float
    prep: float | None
    shots: int
    train: tuple
    test: tuple
    staged: bool  # four chained subcommands instead of one run-all
    rb: bool = False
    pavg: bool = False

    @property
    def depths(self) -> tuple:
        """Depths present in the dataset; depth 0 is the MEM calibration stage."""
        return tuple(sorted(set(self.train) | set(self.test) | {0}))

    @property
    def expected_records(self) -> int:
        return len(self.depths) * self.K * (1 << self.n)

    @property
    def methods(self) -> tuple:
        return (UNMITIGATED, MEM, PROPOSED) + ((PROPOSED_PAVG,) if self.pavg else ())

    def shrunk(self) -> "Workload":
        """Same command shape at smoke size: n=2, K=2."""
        return replace(self, n=2, K=2)

    def commands(self, seed: int, out: str) -> list:
        """qflip argument lists, run in order, each in a fresh interpreter."""
        device = [
            "--preset", f"iid_bitflip:{self.q}",
            "--n", str(self.n),
            "--K", str(self.K),
            "--shots", str(self.shots),
            "--seed", str(seed),
            "--readout", str(self.readout),
        ]
        if self.prep is not None:
            device += ["--prep", str(self.prep)]
        train, test = depth_text(self.train), depth_text(self.test)
        if not self.staged:
            cmd = ["run-all", *device, "--train", train, "--test", test, "--out", out]
            cmd += ["--rb"] if self.rb else []
            cmd += ["--pavg"] if self.pavg else []
            return [cmd]
        dataset, model = f"{out}/dataset.jsonl", f"{out}/model.json"
        return [
            ["simulate", *device, "--depths", depth_text(self.depths), "--inputs", "all",
             "--out", out],
            ["characterize", "--dataset", dataset, "--train", train, "--out", out],
            ["predict", "--model", model, "--depths", test, "--dataset", dataset,
             "--out", out],
            ["mitigate", "--model", model, "--dataset", dataset, "--test", test,
             "--out", out],
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="grid-n3",
            why="README grid config: many tiny records, so per-record Python work "
            "in simulator, codec and mitigation loops dominates; fit, LU and fwht "
            "are negligible",
            n=3, K=100, q=0.004, readout=0.04, prep=0.01, shots=1024,
            train=tuple(range(1, 31)), test=(10, 30, 50, 70, 90),
            staged=False, rb=True, pavg=True,
        ),
        Workload(
            name="wide-n7",
            why="wide 128-outcome vectors, few circuits per cell: 16k coefficient "
            "fits, 128x128 LU factorizations and Dataset.group scans dominate",
            n=7, K=10, q=0.002, readout=0.01, prep=None, shots=1024,
            train=tuple(range(1, 31)), test=(10, 20),
            staged=False,
        ),
        Workload(
            name="staged-n5",
            why="simulate, characterize, predict, mitigate as four processes: the "
            "only workload that reads the dataset back (3x) and pays set-up 4x",
            n=5, K=10, q=0.004, readout=0.02, prep=None, shots=1024,
            train=tuple(range(1, 31)), test=(10, 20, 30),
            staged=True,
        ),
    )
}
