"""Instrumentation installed from outside ``src/``: capture hooks and spans.

Nothing here edits the program. Every probe replaces a public entry point
(or the callback an engine event lands in) with a wrapper and puts the
original back on :meth:`Patcher.restore`.

* :class:`Capture` runs in every repetition. It keeps references to the
  players and cohorts a run creates, marks the first scripted action (and
  ends a set-up-only repetition there),
  counts HTTP round trips, and contains an exception raised by one
  scripted viewer operation so that it is counted as that viewer's failed
  op instead of aborting every other viewer.
* :class:`Ledger` runs only in the traced repetition. It records a span
  around each probed call and keeps self time (span minus child spans),
  call counts and a few per-probe extras.
"""

from __future__ import annotations

import functools
import gc
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional


class Patcher:
    """Replaces attributes and restores them in reverse order."""

    def __init__(self) -> None:
        self._saved: List[tuple] = []

    def wrap(self, owner: Any, name: str, make: Callable[[Any], Any]) -> None:
        # wrap only what the owner itself defines: an inherited attribute
        # belongs to (and is probed at) the class that defines it
        original = vars(owner)[name]
        if isinstance(original, (classmethod, staticmethod)):
            replacement = type(original)(make(original.__func__))
        else:
            replacement = make(original)
        setattr(owner, name, replacement)
        self._saved.append((owner, name, original))

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


# ----------------------------------------------------------------------
# capture hooks (every repetition)
# ----------------------------------------------------------------------


class SetupDone(BaseException):
    """Raised at the first scripted action of a set-up-only repetition.
    A BaseException, so the program's own error handling lets it pass."""


class Capture:
    """What the correctness gate needs to see, at negligible cost."""

    def __init__(self, *, setup_only: bool = False) -> None:
        #: stop the repetition at the first scripted action
        self.setup_only = setup_only
        self.players: List[Any] = []
        self.cohorts: List[Any] = []
        self.plans: Optional[List[Any]] = None
        self.first_action: Optional[float] = None
        self.first_action_cpu: Optional[float] = None
        self.round_trips = 0
        #: (player or cohort, op name, member or "", repr(exception))
        self.failures: List[tuple] = []
        self._op_depth = 0

    def install(self, patcher: Patcher) -> None:
        from repro.load import cohort, harness
        from repro.streaming import client
        from repro.web import http

        capture = self

        def registering(registry: List[Any]):
            def make(init):
                @functools.wraps(init)
                def __init__(self, *args, **kwargs):
                    init(self, *args, **kwargs)
                    registry.append(self)
                return __init__
            return make

        patcher.wrap(client.MediaPlayer, "__init__", registering(self.players))
        patcher.wrap(cohort.CohortViewer, "__init__", registering(self.cohorts))

        def plan_capturing(plan_cohorts):
            @functools.wraps(plan_cohorts)
            def capturing(*args, **kwargs):
                capture.plans = plan_cohorts(*args, **kwargs)
                return capture.plans
            return capturing

        patcher.wrap(harness, "plan_cohorts", plan_capturing)

        def counting(fetch):
            @functools.wraps(fetch)
            def counted(*args, **kwargs):
                capture.round_trips += 1
                return fetch(*args, **kwargs)
            return counted

        patcher.wrap(http.HTTPClient, "fetch", counting)

        for owner, name in (
            (client.MediaPlayer, "connect"),
            (client.MediaPlayer, "play"),
            (client.MediaPlayer, "seek"),
            (client.MediaPlayer, "stop"),
            (cohort.CohortViewer, "start"),
            (cohort.CohortViewer, "split"),
            (cohort.CohortViewer, "depart"),
        ):
            patcher.wrap(owner, name, self._contained(name))

    def _contained(self, op: str):
        """A scripted viewer op: the first one marks the end of set-up; an
        exception from the outermost one is that viewer's failed op."""
        capture = self

        def make(method):
            @functools.wraps(method)
            def contained(self, *args, **kwargs):
                if capture.first_action is None:
                    capture.first_action = time.perf_counter()
                    capture.first_action_cpu = time.process_time()
                    if capture.setup_only:
                        raise SetupDone
                if capture._op_depth:
                    return method(self, *args, **kwargs)
                capture._op_depth += 1
                try:
                    return method(self, *args, **kwargs)
                except Exception as exc:  # one viewer's op, not the run
                    member = kwargs.get("user", "")
                    capture.failures.append((self, op, member, repr(exc)))
                    return None
                finally:
                    capture._op_depth -= 1
            return contained
        return make


# ----------------------------------------------------------------------
# spans (traced repetition only)
# ----------------------------------------------------------------------


class Ledger:
    """Per-probe self time, calls, depths and extras."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.max_depth: Counter = Counter()
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.gc_s = 0.0
        self.gc_collections = 0
        self._depth: Counter = Counter()
        #: child-time accumulators, one per open span (sentinel at [0])
        self._child = [0.0]
        self._gc_started: Optional[float] = None

    def timed(self, key: str):
        """Factory for a plain span wrapper (the hot-path shape)."""
        clock = time.perf_counter
        self_s = self.self_s
        calls = self.calls
        child = self._child

        def make(fn):
            @functools.wraps(fn)
            def span(*args, **kwargs):
                child.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    self_s[key] += elapsed - child.pop()
                    child[-1] += elapsed
                    calls[key] += 1
            return span
        return make

    def observed(
        self,
        key: str,
        *,
        before: Optional[Callable[[tuple], Any]] = None,
        after: Optional[Callable[[tuple, Any, Any], None]] = None,
        failed: Optional[Callable[[tuple, BaseException], None]] = None,
        depth: Optional[str] = None,
    ):
        """Span wrapper with hooks: ``before(args)`` returns a token handed
        to ``after(args, result, token)``; ``failed(args, exc)`` sees an
        exception on its way out; ``depth`` names a nesting counter."""
        clock = time.perf_counter
        self_s = self.self_s
        calls = self.calls
        child = self._child
        nesting = self._depth
        deepest = self.max_depth

        def make(fn):
            @functools.wraps(fn)
            def span(*args, **kwargs):
                token = before(args) if before is not None else None
                if depth is not None:
                    nesting[depth] += 1
                    if nesting[depth] > deepest[depth]:
                        deepest[depth] = nesting[depth]
                child.append(0.0)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    if failed is not None:
                        failed(args, exc)
                    raise
                finally:
                    elapsed = clock() - start
                    self_s[key] += elapsed - child.pop()
                    child[-1] += elapsed
                    calls[key] += 1
                    if depth is not None:
                        nesting[depth] -= 1
                if after is not None:
                    after(args, result, token)
                return result
            return span
        return make

    # -- collector accounting ------------------------------------------

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._gc_started is not None:
            self.gc_s += time.perf_counter() - self._gc_started
            self.gc_collections += 1
            self._gc_started = None

    def install(self, patcher: Patcher) -> None:
        """Probe every layer's entry points (see README.md, "Layers")."""
        from repro.asf import encoder, farm, indexer, packets, stream
        from repro.catalog import admission, index
        from repro.contenttree import abstractor
        from repro.load import cohort, harness, workload
        from repro.lod import lecture, publisher
        from repro.net import engine, link, transport
        from repro.obs import trace
        from repro.streaming import backbone, buffer, client, edge, server
        from repro.web import http

        wrap = patcher.wrap
        timed = self.timed
        counts = self.counts

        def each(owner, names, make):
            for name in names:
                wrap(owner, name, make)

        # load
        wrap(workload, "generate", timed("load.generate"))
        wrap(harness, "plan_cohorts", timed("load.plan"))
        wrap(harness, "run_workload", timed("load.harness"))
        each(cohort.CohortViewer,
             ("start", "split", "depart", "qoes", "_beat", "_beats_skipped"),
             timed("load.cohort"))

        # net: engine loops (nesting = re-entrant stepping), links, channels
        each(engine.Simulator, ("run", "run_until", "fast_forward", "step"),
             self.observed("net.engine", depth="net.engine"))
        wrap(link.Link, "transmit", timed("net.link"))
        wrap(transport.DatagramChannel, "send", timed("net.channel"))
        each(transport.ReliableChannel, ("send", "_arrive", "_timeout"),
             timed("net.channel"))

        # web
        def fetch_start(args):
            return args[0].network.simulator.now

        def fetch_done(args, response, started):
            self.samples["web.rtt_sim"].append(
                args[0].network.simulator.now - started
            )
            if not response.ok:
                counts["web.errors"] += 1

        def fetch_raised(args, exc):
            counts["web.errors"] += 1

        wrap(http.HTTPClient, "fetch", self.observed(
            "web.fetch", before=fetch_start, after=fetch_done,
            failed=fetch_raised, depth="web.fetch",
        ))
        wrap(http.HTTPServer, "handle", timed("web.handle"))

        # asf: read side, write side
        def depacketize_start(args):
            depacketizer, packet = args[0], args[1]
            if packet.sequence in depacketizer._seen_sequences:
                counts["asf.duplicates"] += 1

        def depacketize_done(args, units, _token):
            counts["asf.units_out"] += len(units)

        wrap(packets.Depacketizer, "push_packet", self.observed(
            "asf.depacketize", before=depacketize_start,
            after=depacketize_done,
        ))
        each(stream.ASFFile, ("units", "packets_from"), timed("asf.read"))

        def packetized(args, built, _token):
            counts["asf.packets_built"] += len(built)

        wrap(packets.Packetizer, "packetize",
             self.observed("asf.packetize", after=packetized))
        wrap(packets.DataPacket, "pack", timed("asf.pack"))
        each(stream.ASFFile, ("pack", "packed_packets", "fingerprint"),
             timed("asf.pack"))
        each(encoder.ASFEncoder, ("encode_file",), timed("asf.encode"))
        wrap(farm, "run_encode_job", timed("asf.encode"))
        wrap(indexer.SimpleIndex, "build", timed("asf.index"))
        wrap(farm.EncodeFarm, "encode_batch", timed("farm.batch"))
        each(encoder.EncodeCache,
             ("lookup", "store", "lookup_segment", "store_segment"),
             timed("farm.cache"))

        # streaming.server (origin and the MediaServer half of every relay)
        each(server.MediaServer,
             ("open_session", "play", "seek", "pause", "resume",
              "close_session", "adopt_session", "_handle_control",
              "_handle_describe"),
             timed("server.ctl"))
        each(server.MediaServer, ("_fire_group", "_schedule_next_packet"),
             timed("server.pace"))
        wrap(server.MediaServer, "publish", timed("server.publish"))

        # streaming.edge: directory, fill cascade, relay control, cache
        wrap(edge.EdgeDirectory, "place", timed("edge.place"))
        each(edge.EdgeDirectory,
             ("url_for", "fill_sources", "holders", "record_fill",
              "forget_fill", "can_serve_fill", "edge_url"),
             timed("edge.directory"))
        each(edge.EdgeRelay,
             ("prefetch", "_ensure_local", "_begin_fill", "_fill_from",
              "_on_fill_packet", "_complete_fill", "_await_fill",
              "_ride_fill"),
             timed("edge.fill"))
        each(edge.EdgeRelay,
             ("open_session", "close_session", "play", "_handle_control",
              "_handle_describe", "shutdown"),
             timed("edge.relay"))
        wrap(edge.PacketRunCache, "lookup", timed("edge.lookup"))
        wrap(edge.PacketRunCache, "store", timed("edge.store"))
        each(edge.PacketRunCache, ("remove", "append_live", "live_tail"),
             timed("edge.cache"))

        # streaming.backbone
        def refused(args, exc):
            if isinstance(exc, backbone.BudgetError):
                counts["backbone.refusals"] += 1

        wrap(backbone.BackboneBudget, "reserve",
             self.observed("backbone.budget", failed=refused))
        each(backbone.BackboneBudget, ("release", "force_release_host"),
             timed("backbone.budget"))

        # catalog
        def admitted(args, verdict, _token):
            if verdict:
                counts["catalog.admitted"] += 1

        wrap(admission.TinyLFUAdmission, "admit",
             self.observed("catalog.admit", after=admitted))
        wrap(admission.TinyLFUAdmission, "record_access",
             timed("catalog.access"))
        each(index.CatalogIndex, ("add_variant", "add_publish_result"),
             timed("catalog.index"))

        # streaming.client + streaming.buffer
        each(client.MediaPlayer,
             ("connect", "play", "seek", "stop", "pause", "resume",
              "split_member"),
             timed("client.ctl"))
        wrap(client.MediaPlayer, "_render_tick", timed("client.render"))
        wrap(client.MediaPlayer, "_on_packet", timed("client.recv"))
        wrap(buffer.JitterBuffer, "push", timed("buffer.push"))
        wrap(buffer.JitterBuffer, "pop_due", timed("buffer.pop"))
        wrap(buffer.JitterBuffer, "depth", timed("buffer.depth"))

        # lod + contenttree
        each(publisher.LODPublisher, ("publish", "_assemble_variant"),
             timed("lod.publish"))
        wrap(lecture.Lecture, "content_tree", timed("contenttree.abstract"))
        each(abstractor.Abstractor,
             ("__init__", "at_level", "verify_nesting", "all_levels"),
             timed("contenttree.abstract"))

        # obs (only the tracer repetition hands out a Tracer)
        each(trace.Tracer, ("event", "begin", "end"), timed("obs.tracer"))

        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
