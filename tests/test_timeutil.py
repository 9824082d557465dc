"""Tests for repro.timeutil."""

import datetime

from repro import timeutil as tu


def _day(timestamp):
    """(month, day) of an epoch timestamp, UTC midnight required."""
    moment = datetime.datetime.fromtimestamp(
        timestamp, tz=datetime.timezone.utc
    )
    assert (moment.hour, moment.minute, moment.second) == (0, 0, 0)
    return moment.month, moment.day


class TestAnchors:
    def test_study_window_is_two_weeks(self):
        assert tu.STUDY_DAYS == 14

    def test_active_window_is_four_days(self):
        assert (tu.ACTIVE_END - tu.ACTIVE_START) == 4 * tu.SECONDS_PER_DAY

    def test_idle_window_is_three_days(self):
        assert (tu.IDLE_END - tu.IDLE_START) == 3 * tu.SECONDS_PER_DAY

    def test_idle_window_inside_study(self):
        assert tu.STUDY_START < tu.IDLE_START < tu.IDLE_END <= tu.STUDY_END

    def test_study_starts_nov_15(self):
        assert _day(tu.STUDY_START) == (11, 15)

    def test_idle_starts_nov_23(self):
        assert _day(tu.IDLE_START) == (11, 23)


class TestBucketing:
    def test_hour_index_at_origin(self):
        assert tu.hour_index(tu.STUDY_START) == 0

    def test_hour_index_one_second_before_next_hour(self):
        assert tu.hour_index(tu.STUDY_START + 3599) == 0

    def test_hour_index_advances(self):
        assert tu.hour_index(tu.STUDY_START + 3600) == 1

    def test_hour_index_negative_before_origin(self):
        assert tu.hour_index(tu.STUDY_START - 1) == -1

    def test_day_index(self):
        assert tu.day_index(tu.STUDY_START + 86400 * 3 + 5) == 3

    def test_hour_start_inverts_hour_index(self):
        for index in (0, 5, 47, 335):
            assert tu.hour_index(tu.hour_start(index)) == index

    def test_day_start_inverts_day_index(self):
        for index in (0, 7, 13):
            assert tu.day_index(tu.day_start(index)) == index

    def test_hour_of_day_wraps(self):
        assert tu.hour_of_day(tu.STUDY_START) == 0
        assert tu.hour_of_day(tu.STUDY_START + 25 * 3600) == 1


