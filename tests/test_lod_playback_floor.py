"""Unit tests for LOD playback engine, classroom floor control, interactions."""

import pytest

from repro.core.extended import SiteLink
from repro.lod import (
    Classroom,
    FloorDenied,
    InteractionScript,
    Lecture,
    LectureError,
    LODPlayback,
    MediaStore,
    ScriptedAction,
    WebPublishingManager,
    apply_to_model,
    apply_to_stream,
    random_script,
    replay_all_levels,
)
from repro.streaming import MediaPlayer, MediaServer, PlayerError
from repro.web import VirtualNetwork


def lecture():
    return Lecture.from_slide_durations(
        "L", "A", [10.0, 10.0, 10.0, 10.0], importances=[0, 1, 0, 1],
        slide_width=320, slide_height=240,
    )


@pytest.fixture
def published():
    net = VirtualNetwork()
    net.connect("server", "student", bandwidth=2e6, delay=0.02)
    server = MediaServer(net, "server", port=8080)
    store = MediaStore()
    lec = lecture()
    store.register_lecture("/v", "/s", lec)
    manager = WebPublishingManager(server, store)
    record = manager.publish(video_path="/v", slide_dir="/s", point="lec")
    return net, lec, record, manager


class TestLODPlayback:
    def test_watch_with_audit(self, published):
        net, lec, record, _ = published
        playback = LODPlayback(net, "student", lec, record.url)
        report, audit = playback.watch()
        assert audit.ok
        assert audit.max_error <= 2 * MediaPlayer.RENDER_TICK
        assert set(audit.per_slide) == {s.name for s in lec.segments}

    def test_watch_level_plays_only_level_segments(self, published):
        net, lec, record, manager = published
        playback = LODPlayback(net, "student", lec, record.url)
        tree = manager.content_tree_of("lec")
        result = playback.watch_level(tree, level=1)
        assert result.segments_played == ["slide0", "slide2"]
        assert result.coverage == 1.0
        assert result.nominal_duration == 20.0

    def test_watch_level_full_depth_plays_everything(self, published):
        net, lec, record, manager = published
        playback = LODPlayback(net, "student", lec, record.url)
        tree = manager.content_tree_of("lec")
        result = playback.watch_level(tree, level=tree.highest_level)
        assert result.segments_played == [s.name for s in lec.segments]

    def test_watch_level_by_budget(self, published):
        net, lec, record, manager = published
        playback = LODPlayback(net, "student", lec, record.url)
        tree = manager.content_tree_of("lec")
        result = playback.watch_level(tree, budget=25.0)
        assert result.level == 1

    def test_level_and_budget_mutually_exclusive(self, published):
        net, lec, record, manager = published
        playback = LODPlayback(net, "student", lec, record.url)
        tree = manager.content_tree_of("lec")
        with pytest.raises(LectureError):
            playback.watch_level(tree, level=1, budget=10.0)
        with pytest.raises(LectureError):
            playback.watch_level(tree)

    def test_watch_level_raises_at_deadline_when_server_dies(self, published):
        net, lec, record, manager = published
        net.simulator.schedule(5.0, manager.media_server.crash)
        playback = LODPlayback(net, "student", lec, record.url)
        tree = manager.content_tree_of("lec")
        with pytest.raises(LectureError, match="stalled before"):
            playback.watch_level(tree, level=1)
        # two wanted segments: deadline = start + 2 * (40 s + 2 * 3 s preroll)
        bound = 2 * (lec.duration + 2 * 3.0)
        assert bound <= net.simulator.now < bound + 1.0

    def test_replay_all_levels_monotone_coverage(self, published):
        net, lec, record, manager = published
        playback = LODPlayback(net, "student", lec, record.url)
        tree = manager.content_tree_of("lec")
        results = replay_all_levels(playback, tree)
        counts = [len(r.segments_played) for r in results]
        assert counts == sorted(counts)
        assert counts[-1] == 4


class TestClassroom:
    def make_room(self, **kwargs):
        pres = lecture().to_presentation()
        return Classroom(
            pres,
            {"s1": SiteLink(0.05), "s2": SiteLink(0.1)},
            **kwargs,
        )

    def test_teacher_starts_with_floor(self):
        room = self.make_room()
        assert room.floor_holder == "teacher"

    def test_nonholder_interaction_denied(self):
        room = self.make_room()
        room.interact("teacher", "play")
        with pytest.raises(FloorDenied):
            room.interact("s1", "pause")
        assert room.denial_count() == 1

    def test_floor_passes_fifo(self):
        room = self.make_room()
        room.request_floor("s1")
        room.request_floor("s2")
        assert room.release_floor("teacher") == "s1"
        assert room.release_floor("s1") == "s2"

    def test_holder_commands_replicate(self):
        room = self.make_room()
        room.interact("teacher", "play")
        room.advance(3)
        assert room.coordinator.sites["s1"].state == "playing"
        room.interact("teacher", "pause")
        room.advance(1)
        assert room.coordinator.sites["s1"].state == "paused"

    def test_fairness_accounting(self):
        room = self.make_room()
        room.interact("teacher", "play")
        room.advance(4)
        room.request_floor("s1")
        room.release_floor("teacher")
        room.advance(6)
        times = room.fairness()
        assert times["teacher"] == pytest.approx(4.0)
        assert times["s1"] == pytest.approx(6.0)
        assert 0 < room.jain_index() <= 1

    def test_teacher_cannot_be_student(self):
        pres = lecture().to_presentation()
        with pytest.raises(ValueError):
            Classroom(pres, {"teacher": SiteLink()})

    def test_event_log(self):
        room = self.make_room()
        room.interact("teacher", "play")
        actions = [e.action for e in room.events]
        assert actions[0] == "request_floor"
        assert "play" in actions


class TestInteractionScripts:
    def test_action_validation(self):
        with pytest.raises(ValueError):
            ScriptedAction(-1, "pause")
        with pytest.raises(ValueError):
            ScriptedAction(1, "teleport")

    def test_script_sorts_actions(self):
        script = InteractionScript(
            [ScriptedAction(5, "pause"), ScriptedAction(1, "pause")]
        )
        assert [a.at for a in script.actions] == [1, 5]
        assert script.horizon == 5

    def test_random_script_reproducible(self):
        a = random_script(duration=100, seed=3, pause_rate=0.1)
        b = random_script(duration=100, seed=3, pause_rate=0.1)
        assert a.actions == b.actions

    def test_random_script_pause_resume_paired(self):
        script = random_script(duration=200, seed=5, pause_rate=0.2, skip_rate=0.0)
        kinds = [a.action for a in script.actions]
        assert kinds.count("pause") == kinds.count("resume")

    def test_apply_to_model_completes(self):
        pres = lecture().to_presentation()
        script = InteractionScript(
            [
                ScriptedAction(2.0, "pause"),
                ScriptedAction(4.0, "resume"),
                ScriptedAction(6.0, "skip_forward"),
                ScriptedAction(8.0, "speed", 2.0),
            ]
        )
        result = apply_to_model(pres, script)
        assert result.applied == 4
        assert result.rejected == 0
        assert result.player.finished

    def test_apply_to_model_counts_rejections(self):
        pres = lecture().to_presentation()
        script = InteractionScript(
            [ScriptedAction(1.0, "resume")]  # illegal: not paused
        )
        result = apply_to_model(pres, script)
        assert result.rejected == 1

    def test_apply_to_stream(self, published):
        net, lec, record, _ = published
        script = InteractionScript(
            [
                ScriptedAction(2.0, "pause"),
                ScriptedAction(3.0, "resume"),
                ScriptedAction(5.0, "seek", 30.0),
            ]
        )
        player = MediaPlayer(net, "viewer")
        result = apply_to_stream(net, player, record.url, script)
        assert result.applied == 3
        assert result.report.duration_watched == pytest.approx(40.0, abs=0.3)

    def test_apply_to_stream_times_out_when_server_dies_in_preroll(
        self, published
    ):
        net, lec, record, manager = published
        net.simulator.schedule(0.2, manager.media_server.crash)
        script = InteractionScript([ScriptedAction(2.0, "pause")])
        started = net.simulator.now
        with pytest.raises(PlayerError, match="never started"):
            apply_to_stream(
                net, MediaPlayer(net, "viewer"), record.url, script,
                timeout=30.0,
            )
        assert net.simulator.now <= started + 31.0

    def test_apply_to_stream_rejects_skips(self, published):
        net, lec, record, _ = published
        script = InteractionScript([ScriptedAction(1.0, "skip_forward")])
        with pytest.raises(ValueError):
            apply_to_stream(net, MediaPlayer(net, "v2"), record.url, script)
