"""Positive and negative cases for the trace-context envelope rule."""

from repro.analysis.rules import TraceContextRule

from .conftest import findings_for


def check(analyze, files):
    return findings_for(analyze(files, rules=[TraceContextRule()]),
                        "trace-context")


class TestFlagging:
    def test_contextless_request_envelope_is_flagged(self, analyze):
        found = check(analyze, {"cluster/frontend.py": """
            def send(net, body):
                net.send("fe", "r0", encode_message(
                    {"kind": "request", "body": body}))
            """})
        assert len(found) == 1
        assert "trace context" in found[0].message

    def test_chaos_layer_is_covered_too(self, analyze):
        found = check(analyze, {"chaos/runner.py": """
            def probe(net):
                net.send("fe", "r0", encode_message({"kind": "ping"}))
            """})
        assert len(found) == 1

    def test_envelope_with_trace_field_passes(self, analyze):
        assert check(analyze, {"cluster/frontend.py": """
            def send(net, body, ctx):
                net.send("fe", "r0", encode_message(
                    {"kind": "request", "body": body,
                     "trace": ctx.as_wire()}))
            """}) == []

    def test_method_style_encode_call_is_checked(self, analyze):
        found = check(analyze, {"cluster/net.py": """
            def send(codec):
                return codec.encode_message({"kind": "request"})
            """})
        assert len(found) == 1


class TestOutOfScope:
    def test_non_literal_envelopes_are_not_flagged(self, analyze):
        # dicts built elsewhere are not statically checkable; the rule
        # stays silent rather than guessing
        assert check(analyze, {"cluster/replica.py": """
            def reply_to(net, reply):
                net.send("r0", "fe", encode_message(reply))
            """}) == []

    def test_kindless_dicts_are_not_envelopes(self, analyze):
        assert check(analyze, {"cluster/frontend.py": """
            def stats():
                return encode_message({"count": 3})
            """}) == []

    def test_other_layers_are_exempt(self, analyze):
        assert check(analyze, {"core/veilmon.py": """
            def send(net):
                net.send("a", "b", encode_message({"kind": "request"}))
            """}) == []

    def test_other_calls_with_kind_dicts_pass(self, analyze):
        assert check(analyze, {"cluster/frontend.py": """
            def log(record):
                return json.dumps({"kind": "request"})
            """}) == []


class TestSuppression:
    def test_control_plane_suppression_is_honored(self, analyze):
        report = analyze({"cluster/attest.py": """
            def hello(net):
                net.send("fe", "r0", encode_message(
                    # veil-lint: allow(trace-context) -- control frame
                    {"kind": "attest"}))
            """}, rules=[TraceContextRule()])
        assert findings_for(report, "trace-context") == []
        (suppressed,) = [f for f in report.findings if f.suppressed]
        assert suppressed.suppress_reason == "control frame"


class TestLiveTree:
    def test_live_request_paths_carry_context(self, live_report):
        """Every fabric send in the shipped tree propagates or justifies."""
        report = live_report
        active = [f for f in report.findings
                  if f.rule == "trace-context" and not f.suppressed]
        assert active == []
        justified = [f for f in report.findings
                     if f.rule == "trace-context" and f.suppressed]
        assert len(justified) >= 3      # attest x2, audit export
        for finding in justified:
            assert "control-plane" in finding.suppress_reason
