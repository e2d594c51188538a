import cfspectra.errors
from cfspectra.errors import precisions


class TestPrecisions:
    def test_doubles_up_to_and_including_the_cap(self, monkeypatch):
        monkeypatch.setattr(cfspectra.errors, "PRECISION_CAP_BITS", 256)
        assert list(precisions(32)) == [32, 64, 128, 256]
        assert list(precisions(48)) == [48, 96, 192]
        assert list(precisions(256)) == [256]

    def test_nothing_above_the_cap(self, monkeypatch):
        monkeypatch.setattr(cfspectra.errors, "PRECISION_CAP_BITS", 256)
        assert list(precisions(257)) == []

    def test_default_cap(self):
        assert list(precisions(1 << 14)) == [1 << 14, 1 << 15, 1 << 16]

    def test_follows_a_cap_patched_after_creation(self, monkeypatch):
        steps = precisions(16)
        assert next(steps) == 16
        monkeypatch.setattr(cfspectra.errors, "PRECISION_CAP_BITS", 64)
        assert list(steps) == [32, 64]
