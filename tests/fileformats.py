"""Inverses of the program's file writers and readers that only tests need.

`network_to_text` writes the text format that `roadnet.build_network`
reads, and `load_network` reads the `policy.bin` format that
`neuralnet.save_network` writes.  The reader keeps its own copy of the
format's constants, so a round trip checks the writer against the format
as documented in `neuralnet`, not against itself.
"""

from __future__ import annotations

import struct

import numpy as np

from flowctl.neuralnet import PolicyNetwork
from flowctl.roadnet import RoadNetwork

POLICY_MAGIC = b"FLOWNN01"
POLICY_FORMAT_VERSION = 1


def network_to_text(net: RoadNetwork) -> str:
    """Serialize a network to the textual format accepted by build_network."""
    lines = [f"node {n}" for n in sorted(net.adjacency)]
    for eid in sorted(net.edges):
        e = net.edges[eid]
        lines.append(
            f"edge {e.id} {e.from_node} {e.to_node} {e.length!r} "
            f"{e.lane_count} {e.speed_limit!r} {1 if e.signalized else 0}")
    return "\n".join(lines) + "\n"


class NetworkFormatError(ValueError):
    """A persisted network file is corrupt or has an unsupported layout."""


def load_network(path) -> PolicyNetwork:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(POLICY_MAGIC) + 8 or blob[:len(POLICY_MAGIC)] != POLICY_MAGIC:
        raise NetworkFormatError("bad magic: not a policy network file")
    off = len(POLICY_MAGIC)
    version, n_sizes = struct.unpack_from("<II", blob, off)
    off += 8
    if version != POLICY_FORMAT_VERSION:
        raise NetworkFormatError(f"unsupported format version {version}")
    if n_sizes < 2 or n_sizes > 64:
        raise NetworkFormatError(f"implausible layer count {n_sizes}")
    if len(blob) < off + 4 * n_sizes:
        raise NetworkFormatError("truncated header")
    sizes = struct.unpack_from(f"<{n_sizes}I", blob, off)
    off += 4 * n_sizes
    if any(s < 1 for s in sizes):
        raise NetworkFormatError(f"invalid layer sizes {sizes}")
    expected = sum(8 * (a * b + b) for a, b in zip(sizes[:-1], sizes[1:]))
    if len(blob) - off != expected:
        raise NetworkFormatError(
            f"payload is {len(blob) - off} bytes but layer sizes {tuple(sizes)} "
            f"require {expected}")
    weights = []
    biases = []
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        w = np.frombuffer(blob, dtype="<f8", count=n_out * n_in, offset=off)
        off += 8 * n_out * n_in
        b = np.frombuffer(blob, dtype="<f8", count=n_out, offset=off)
        off += 8 * n_out
        weights.append(w.reshape(n_out, n_in).copy())
        biases.append(b.copy())
    return PolicyNetwork(weights=tuple(weights), biases=tuple(biases))
