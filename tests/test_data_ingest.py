import datetime as dt
import logging

import numpy as np
import pytest

from epiprofiler.data_ingest import (
    SARS_ADJACENCY_FILE,
    SARS_CASES_FILE,
    CaseReportSeries,
    bundled_data_path,
    daily_deltas,
    filter_regions,
    load_case_series,
    rank_timeline,
    write_timeline_csv,
)
from epiprofiler.network import load_adjacency
from epiprofiler.profiler import DecayKind, DecaySpec, ObservableKind, likeliness_scores
from oracles import hop_distances, is_interchangeable

POLY = DecaySpec(DecayKind.POLYNOMIAL, 0.5)


def write_cases(tmp_path, rows, name="cases.csv"):
    path = tmp_path / name
    path.write_text("date,region,cumulative_cases\n" + "\n".join(rows) + "\n")
    return path


@pytest.fixture(scope="module")
def sars_network():
    return load_adjacency(bundled_data_path(SARS_ADJACENCY_FILE))


@pytest.fixture(scope="module")
def sars_series():
    return load_case_series(bundled_data_path(SARS_CASES_FILE))


class TestLoadCaseSeries:
    def test_three_region_file(self, tmp_path):
        path = write_cases(
            tmp_path,
            [
                "2003-03-17,AAA,5",
                "2003-03-17,BBB,2",
                "2003-03-18,AAA,6",
                "2003-03-18,BBB,2",
                "2003-03-17,CCC,0",
                "2003-03-18,CCC,1",
            ],
        )
        series = load_case_series(path)
        assert series.regions == ("AAA", "BBB", "CCC")
        assert series.dates == (dt.date(2003, 3, 17), dt.date(2003, 3, 18))
        np.testing.assert_array_equal(series.cumulative, [[5, 2, 0], [6, 2, 1]])

    def test_duplicate_row_rejected_with_line(self, tmp_path):
        path = write_cases(
            tmp_path,
            ["2003-03-20,HKG,100", "2003-03-20,HKG,101"],
        )
        with pytest.raises(ValueError, match="line 3.*duplicate"):
            load_case_series(path)

    def test_negative_count_rejected(self, tmp_path):
        path = write_cases(tmp_path, ["2003-03-20,HKG,-3"])
        with pytest.raises(ValueError, match="line 2.*negative"):
            load_case_series(path)

    def test_malformed_date_rejected(self, tmp_path):
        path = write_cases(tmp_path, ["20/03/2003,HKG,3"])
        with pytest.raises(ValueError, match="line 2.*date"):
            load_case_series(path)

    def test_gap_day_accepted(self, tmp_path):
        path = write_cases(
            tmp_path,
            ["2003-03-17,AAA,5", "2003-03-17,BBB,1", "2003-03-18,AAA,7"],
        )
        series = load_case_series(path)
        assert np.isnan(series.cumulative[1, 1])

    def test_header_required(self, tmp_path):
        path = tmp_path / "cases.csv"
        path.write_text("day,place,count\n2003-03-17,AAA,5\n")
        with pytest.raises(ValueError, match="header"):
            load_case_series(path)


class TestFilterRegions:
    def make_series(self):
        dates = tuple(dt.date(2003, 3, 17) + dt.timedelta(days=k) for k in range(40))
        regions = ("BIG", "EDGE", "TINY")
        cum = np.zeros((40, 3))
        cum[:, 0] = np.arange(40) * 3.0  # BIG grows fast
        cum[:, 1] = np.minimum(np.arange(40) // 6, 5)  # EDGE reaches 5 on day 30
        cum[:, 2] = np.minimum(np.arange(40) // 12, 4)  # TINY peaks at 4 late
        return CaseReportSeries(regions, dates, cum)

    def test_threshold_keeps_reachers(self):
        filtered = filter_regions(self.make_series(), min_cases=5, window_days=31)
        assert filtered.regions == ("BIG", "EDGE")

    def test_zero_threshold_is_identity(self):
        series = self.make_series()
        filtered = filter_regions(series, min_cases=0, window_days=31)
        assert filtered.regions == series.regions

    def test_window_shorter_than_edge_needs(self):
        filtered = filter_regions(self.make_series(), min_cases=5, window_days=20)
        assert filtered.regions == ("BIG",)

    def test_window_beyond_range_rejected(self):
        with pytest.raises(ValueError, match="window"):
            filter_regions(self.make_series(), min_cases=5, window_days=60)

    @pytest.mark.parametrize("window_days", [40, 10**20])
    def test_window_beyond_the_span_names_window_days(self, window_days):
        # The series spans 39 days. A window too long for any date is
        # refused the same way, before any date arithmetic.
        with pytest.raises(ValueError, match=f"window_days {window_days} reaches beyond the last observation"):
            filter_regions(self.make_series(), min_cases=5, window_days=window_days)


class TestDailyDeltas:
    def test_plain_difference(self, tmp_path):
        path = write_cases(tmp_path, ["2003-03-20,HKG,95", "2003-03-21,HKG,123"])
        datasets = daily_deltas(load_case_series(path))
        assert len(datasets) == 1
        assert datasets[0].kind is ObservableKind.NEW_CASES
        np.testing.assert_array_equal(datasets[0].values, [28.0])
        assert datasets[0].t_obs == 0.0

    def test_downward_revision_clamped_with_warning(self, tmp_path, caplog):
        path = write_cases(tmp_path, ["2003-04-12,USA,50", "2003-04-14,USA,48"])
        series = load_case_series(path)
        with caplog.at_level(logging.WARNING, logger="epiprofiler.data_ingest"):
            datasets = daily_deltas(series)
        np.testing.assert_array_equal(datasets[0].values, [0.0])
        assert any("USA" in record.message for record in caplog.records)

    def test_missing_entry_carried_forward(self, tmp_path):
        path = write_cases(
            tmp_path,
            [
                "2003-03-17,AAA,5",
                "2003-03-17,FRA,2",
                "2003-03-18,AAA,9",
                "2003-03-19,AAA,10",
                "2003-03-19,FRA,4",
            ],
        )
        datasets = daily_deltas(load_case_series(path))
        # FRA missing on the 18th: delta 0 that day, then 2 when it reappears
        np.testing.assert_array_equal(datasets[0].values, [4.0, 0.0])
        np.testing.assert_array_equal(datasets[1].values, [1.0, 2.0])

    def test_one_dataset_per_consecutive_pair(self, sars_series):
        filtered = filter_regions(sars_series)
        datasets = daily_deltas(filtered)
        assert len(datasets) == len(filtered.dates) - 1
        for data in datasets:
            assert np.all(data.values >= 0)

    def test_label_mismatch_rejected(self, tmp_path):
        path = write_cases(tmp_path, ["2003-03-17,AAA,5", "2003-03-18,AAA,6"])
        with pytest.raises(ValueError, match="labels"):
            daily_deltas(load_case_series(path), labels=["AAA", "ZZZ"])

    def test_regions_the_network_lacks_are_dropped_with_one_warning(self, tmp_path, caplog):
        path = write_cases(
            tmp_path,
            ["2003-03-17,AAA,1", "2003-03-17,ZZZ,4", "2003-03-17,MMM,2",
             "2003-03-18,AAA,3", "2003-03-18,ZZZ,2", "2003-03-18,MMM,9"],
        )
        with caplog.at_level(logging.WARNING, logger="epiprofiler.data_ingest"):
            datasets = daily_deltas(load_case_series(path), labels=["AAA"])
        np.testing.assert_array_equal(datasets[0].values, [2.0])
        # One warning, naming both; ZZZ's downward revision is not reported.
        assert [r.getMessage() for r in caplog.records] == [
            "dropping case-series regions the network lacks: MMM, ZZZ"
        ]

    def test_network_node_missing_from_series_is_named(self, tmp_path):
        path = write_cases(tmp_path, ["2003-03-17,AAA,5", "2003-03-18,AAA,6", "2003-03-18,BBB,1"])
        with pytest.raises(ValueError, match=r"missing from series: \['ZZZ'\]"):
            daily_deltas(load_case_series(path), labels=["AAA", "ZZZ"])

    def test_label_order_respected(self, tmp_path):
        path = write_cases(
            tmp_path,
            [
                "2003-03-17,AAA,1",
                "2003-03-17,BBB,10",
                "2003-03-18,AAA,2",
                "2003-03-18,BBB,14",
            ],
        )
        datasets = daily_deltas(load_case_series(path), labels=["BBB", "AAA"])
        np.testing.assert_array_equal(datasets[0].values, [4.0, 1.0])


class TestBundledReconstruction:
    def test_eleven_regions_retained(self, sars_series):
        filtered = filter_regions(sars_series)
        assert filtered.regions == (
            "CAN", "FRA", "GBR", "GER", "HKG", "MAS", "ROC", "SIN", "THI", "USA", "VIE",
        )

    def test_interchangeable_groups(self, sars_network):
        dist = hop_distances(sars_network)
        labels = list(sars_network.labels)
        pair = [labels.index("THI"), labels.index("VIE")]
        triple = [labels.index("MAS"), labels.index("GBR"), labels.index("GER")]
        assert is_interchangeable(dist, pair)
        assert is_interchangeable(dist, triple)

    def test_usa_is_largest_hub(self, sars_network):
        degrees = dict(zip(sars_network.labels, sars_network.degrees()))
        assert max(degrees, key=degrees.get) == "USA"
        others = [v for k, v in degrees.items() if k != "USA"]
        assert degrees["USA"] > max(others)

    def test_hkg_ranks_first_every_day(self, sars_network, sars_series):
        filtered = filter_regions(sars_series)
        datasets = daily_deltas(filtered, labels=sars_network.labels)
        timeline = rank_timeline(sars_network, datasets, POLY, dates=filtered.dates[:-1])
        tops = [timeline.labels[e.result.ranking[0]] for e in timeline.entries]
        assert tops == ["HKG"] * len(timeline.entries)

    def test_mean_rank_ordering_matches_outbreak_history(self, sars_network, sars_series):
        # after HKG: the SIN/ROC/CAN/USA group, then European regions, with
        # Southeast Asian regions last (averaged over the observation month)
        filtered = filter_regions(sars_series)
        datasets = daily_deltas(filtered, labels=sars_network.labels)
        timeline = rank_timeline(sars_network, datasets, POLY)
        positions = {label: [] for label in timeline.labels}
        for entry in timeline.entries:
            for rank, node in enumerate(entry.result.ranking, start=1):
                positions[timeline.labels[node]].append(rank)
        mean_rank = {label: float(np.mean(v)) for label, v in positions.items()}
        runners_up = {"SIN", "ROC", "CAN", "USA"}
        european = {"FRA", "GBR", "GER"}
        southeast_asian = {"MAS", "THI", "VIE"}
        rest = european | southeast_asian
        assert all(mean_rank["HKG"] < mean_rank[r] for r in runners_up)
        assert max(mean_rank[r] for r in runners_up) < min(mean_rank[r] for r in rest)
        assert max(mean_rank[r] for r in european) < min(mean_rank[r] for r in southeast_asian)

    def test_interchangeable_pair_adjacent_when_histories_coincide(
        self, sars_network, sars_series
    ):
        filtered = filter_regions(sars_series)
        datasets = daily_deltas(filtered, labels=sars_network.labels)
        timeline = rank_timeline(sars_network, datasets, POLY)
        labels = list(sars_network.labels)
        thi, vie = labels.index("THI"), labels.index("VIE")
        for data, entry in zip(datasets, timeline.entries):
            if data.values[thi] == data.values[vie]:
                positions = sorted(
                    (int(np.where(entry.result.ranking == node)[0][0]) for node in (thi, vie))
                )
                assert positions[1] - positions[0] == 1


class TestRankTimeline:
    def test_degenerate_day_flagged(self, sars_network):
        from epiprofiler.profiler import Dataset

        zero = Dataset(np.zeros(11), ObservableKind.NEW_CASES, t_obs=0.0)
        timeline = rank_timeline(sars_network, [zero], POLY)
        assert timeline.entries[0].result.degenerate
        assert timeline.entries[0].result.ranking.tolist() == list(range(11))

    def test_size_mismatch_rejected(self, sars_network):
        from epiprofiler.profiler import Dataset

        bad = Dataset(np.zeros(5), ObservableKind.NEW_CASES)
        with pytest.raises(ValueError, match="nodes"):
            rank_timeline(sars_network, [bad], POLY)

    @pytest.mark.parametrize(
        "spec",
        [
            DecaySpec(DecayKind.NAIVE),
            DecaySpec(DecayKind.POWER, 2.0),
            POLY,
            DecaySpec(DecayKind.EXPONENTIAL, 0.05),
        ],
    )
    def test_matches_per_day_scoring(self, sars_network, sars_series, spec):
        # One weight matrix per timeline gives the same bits as rebuilding
        # it for every day.
        datasets = daily_deltas(filter_regions(sars_series), labels=sars_network.labels)
        timeline = rank_timeline(sars_network, datasets, spec)
        assert len(timeline.entries) == len(datasets)
        for data, entry in zip(datasets, timeline.entries):
            want = likeliness_scores(sars_network, data, spec)
            assert entry.result.scores.tobytes() == want.scores.tobytes()
            assert np.array_equal(entry.result.ranking, want.ranking)
            assert entry.result.degenerate == want.degenerate

    def test_timeline_csv_deterministic(self, tmp_path, sars_network, sars_series):
        filtered = filter_regions(sars_series)
        datasets = daily_deltas(filtered, labels=sars_network.labels)
        timeline = rank_timeline(sars_network, datasets, POLY, dates=filtered.dates[:-1])
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_timeline_csv(timeline, a)
        write_timeline_csv(timeline, b)
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert lines[0] == "day_index,date,rank,region,score,degenerate_flag"
        assert len(lines) == 1 + 11 * len(timeline.entries)
        assert lines[1].split(",")[:4] == ["0", "2003-03-17", "1", "HKG"]
