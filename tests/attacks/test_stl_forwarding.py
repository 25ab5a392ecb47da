"""Figure 3 / §4.4: doppelgangers and store-to-load forwarding.

Two properties must hold simultaneously:

* *correctness* — a load whose doppelganger is in flight must still commit
  the value of an aliasing older store (the forwarding override);
* *security* — the doppelganger access must still appear in the memory
  hierarchy even when a store aliases its predicted address (a store must
  not be able to make a doppelganger invisible, §4.4).
"""

import pytest

from repro.attacks.gadgets import STL_DATA_ADDR, store_forward_probe
from repro.attacks.harness import attack_config
from repro.pipeline.core import Core
from repro.schemes import SCHEME_LABELS, make_scheme


class TestForwardingCorrectness:
    @pytest.mark.parametrize("scheme", SCHEME_LABELS)
    def test_load_commits_store_value(self, scheme):
        gadget = store_forward_probe(store_value=777)
        reference = gadget.program.interpret()
        core = Core(gadget.program, make_scheme(scheme), config=attack_config())
        core.run()
        assert core.arch.read_mem(8) == reference.state.read_mem(8)

    def test_checksum_includes_store_value_exactly_once(self):
        gadget = store_forward_probe(store_value=1000)
        result = gadget.program.interpret()
        # 39 rounds read the initial value 1, the last round reads 1000.
        assert result.state.read_mem(8) == 39 * 1 + 1000


class TestDoppelgangerVisibility:
    def test_doppelganger_issues_despite_aliasing_store(self):
        """§4.4: forwarding happens transparently by overriding the
        preload; the doppelganger still accesses memory."""
        gadget = store_forward_probe()
        core = Core(gadget.program, make_scheme("stt+ap"), config=attack_config())
        core.hierarchy.watch([STL_DATA_ADDR])
        core.run()
        counts = core.hierarchy.watched_counts()
        line = core.hierarchy.line_address(STL_DATA_ADDR)
        # The trained load's line is accessed many times: the demand loads
        # and the doppelganger accesses (which are not suppressed by the
        # aliasing store).
        assert core.stats.dl_issued > 0
        assert counts[line] > 0

    @pytest.mark.parametrize("scheme", ["nda+ap", "stt+ap", "dom+ap"])
    def test_forwarded_doppelganger_counted(self, scheme):
        """When an aliasing store's value overrides a correct preload the
        engine records the override (dl_forwarded)."""
        gadget = store_forward_probe()
        core = Core(gadget.program, make_scheme(scheme), config=attack_config())
        core.run()
        # The final round has a store immediately preceding the load at
        # the same address; with a correct prediction in flight this is
        # either a forwarding override or a plain store-to-load forward.
        assert core.stats.dl_forwarded + core.stats.store_to_load_forwards > 0

    def test_forwarding_does_not_change_access_visibility_between_secrets(self):
        """The store value must not modulate the doppelganger's memory
        behaviour: runs that differ only in the *stored value* produce
        identical access counts on the probed line."""
        counts = {}
        for value in (5, 999):
            gadget = store_forward_probe(store_value=value)
            core = Core(
                gadget.program, make_scheme("dom+ap"), config=attack_config()
            )
            core.hierarchy.watch([STL_DATA_ADDR])
            core.run()
            line = core.hierarchy.line_address(STL_DATA_ADDR)
            counts[value] = core.hierarchy.watched_counts()[line]
        assert counts[5] == counts[999]
