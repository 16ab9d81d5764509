#!/usr/bin/env python
"""Computation in the switch fabric (thesis section 8.3).

Encrypts payloads *inside* the Rotating Crossbar as they stream between
ports: the header's computation bits select an XOR stream cipher applied
by the Crossbar Processors at two instructions per word.  The demo
verifies the transform end to end through the full router model (egress
payloads differ from ingress, and decrypting restores them), then prints
what each in-fabric service costs in throughput.

Run:  python examples/fabric_compute.py
"""

from repro.core.compute import XorCipher
from repro.experiments import compute_ext
from repro.router import RawRouter
from repro.traffic import PacketFactory, PatternSpec, SizeSpec, SpecModel, TrafficSpec


def functional_demo() -> None:
    print("=== in-fabric encryption through the full router ===")
    cipher = XorCipher(seed=0xDEADBEEF)
    router = RawRouter(transform=cipher, warmup_cycles=0)
    spec = TrafficSpec(
        pattern=PatternSpec(kind="permutation", shift=1), sizes=SizeSpec(bytes=256)
    )
    workload = SpecModel(spec, n=4, seed=1)
    factory = PacketFactory(4, 1)

    # Track every packet and its plaintext; the fabric mutates payloads
    # in place as they cross the crossbar.
    tracked = []
    real_make = factory.make

    def tracking_make(input_port, output_port, size_bytes):
        pkt = real_make(input_port, output_port, size_bytes)
        tracked.append((pkt, tuple(pkt.payload)))
        return pkt

    factory.make = tracking_make
    router.attach_saturated(workload, factory)
    result = router.run(target_packets=40)

    delivered = [(p, plain) for p, plain in tracked if p.departure_cycle >= 0]
    encrypted = sum(tuple(p.payload) != plain for p, plain in delivered)
    restored = sum(
        tuple(cipher.apply(p.payload)) == plain for p, plain in delivered
    )
    print(f"forwarded {result.packets} packets at {result.gbps:.2f} Gbps with cipher on")
    print(f"payloads transformed in-fabric : {encrypted}/{len(delivered)}")
    print(f"decrypt restores plaintext     : {restored}/{len(delivered)}\n")


def cost_table() -> None:
    print("=== throughput cost of each in-fabric service ===")
    res = compute_ext.run(quanta=1500)
    print(res.to_text())


if __name__ == "__main__":
    functional_demo()
    cost_table()
