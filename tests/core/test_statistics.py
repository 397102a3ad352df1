import numpy as np
import pytest

from repro.core.experiment import SweepResult
from repro.core.statistics import (
    AggregatedSweep,
    aggregate_sweeps,
    repeat_sweep,
    student_t_ppf,
)
from repro.errors import ConfigurationError, DataError

#: ``scipy.stats.t.ppf(0.5 + confidence / 2, df)`` for every df in
#: ``T_PPF_DFS`` (the two-sided t value ``aggregate_sweeps`` uses),
#: recorded with scipy 1.17.1 before the library dropped scipy.
T_PPF_DFS = tuple(range(1, 61)) + (120,)
T_PPF = {
    0.9: (
        6.313751514675037, 2.9199855803537242, 2.3533634348018233, 2.1318467863266495,
        2.0150483733330233, 1.9431802805153042, 1.8945786050900062, 1.8595480375308973,
        1.833112932656237, 1.8124611228116756, 1.7958848187040433, 1.782287555649319,
        1.7709333959868725, 1.761310135774891, 1.753050355692572, 1.7458836762762495,
        1.7396067260750725, 1.7340636066175388, 1.7291328115213682, 1.7247182429207866,
        1.720742902811878, 1.7171443743802424, 1.713871527747048, 1.710882079909428,
        1.7081407612518986, 1.7056179197592727, 1.7032884457221265, 1.7011309342659313,
        1.6991270265334972, 1.697260886593957, 1.6955187825458649, 1.6938887483837102,
        1.6923603090303438, 1.6909242551868546, 1.6895724577802655, 1.6882977141168156,
        1.6870936195962631, 1.6859544601667371, 1.6848751217112248, 1.683851013335652,
        1.682878002132708, 1.6819523574675337, 1.681070703202519, 1.6802299765721167,
        1.6794273926523544, 1.678660413556865, 1.6779267216418607, 1.6772241961243388,
        1.6765508926168535, 1.675905025163097, 1.67528495042491, 1.6746891537260253,
        1.6741162367031004, 1.6735649063521605, 1.673033965289911, 1.6725223030755771,
        1.6720288884609522, 1.6715527624548587, 1.6710930321038946, 1.6706488649046363,
        1.6576508993552352,
    ),
    0.95: (
        12.706204736174694, 4.302652729749462, 3.1824463052837078, 2.7764451051977934,
        2.5705818356363146, 2.4469118511449786, 2.364624251592784, 2.306004135204166,
        2.262157162798205, 2.228138851986274, 2.200985160091639, 2.1788128296672284,
        2.1603686564627913, 2.144786687917804, 2.131449545559776, 2.1199052992212546,
        2.1098155778333156, 2.1009220402410382, 2.0930240544083087, 2.085963447265864,
        2.0796138447276795, 2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
        2.0595385527532972, 2.0555294386428735, 2.0518305164802846, 2.0484071417952454,
        2.045229642132703, 2.0422724563012378, 2.039513446396408, 2.0369333434601016,
        2.0345152974493383, 2.0322445093177186, 2.030107928250343, 2.0280940009804502,
        2.0261924630291093, 2.0243941639119694, 2.022690920036761, 2.021075390306273,
        2.019540970441376, 2.0180817028184443, 2.016692199227824, 2.0153675744437636,
        2.014103388880846, 2.012895598919429, 2.0117405137297655, 2.010634757624232,
        2.0095752371292392, 2.008559112100761, 2.007583770315836, 2.006646805061688,
        2.0057459953178687, 2.0048792881880564, 2.0040447832891455, 2.003240718847872,
        2.002465459291007, 2.0017174841452356, 2.000995378088267, 2.0002978220142604,
        1.9799304050824402,
    ),
    0.99: (
        63.656741162871526, 9.924843200918287, 5.840909309733355, 4.604094871349992,
        4.032142983555228, 3.7074280213248065, 3.4994832973504924, 3.355387331333395,
        3.249835541592126, 3.16927267261695, 3.1058065155392804, 3.0545395893929013,
        3.012275838716578, 2.9768427343708344, 2.946712883475238, 2.9207816224251,
        2.8982305196774183, 2.8784404727386077, 2.8609346064649794, 2.8453397097861077,
        2.83135955802305, 2.8187560606001423, 2.807335683769999, 2.796939504774456,
        2.78743581367697, 2.778714533329683, 2.770682957122211, 2.763262455461444,
        2.756385903670605, 2.7499956535672254, 2.744041919294269, 2.7384814820121877,
        2.7332766423508357, 2.7283943670707203, 2.7238055892080912, 2.7194846304500073,
        2.7154087215499882, 2.7115576019130825, 2.707913183517662, 2.7044592674331622,
        2.701181303578522, 2.6980661862199846, 2.6951020791576745, 2.6922782656930218,
        2.689585019374643, 2.6870134922422158, 2.6845556178665246, 2.6822040269502154,
        2.679951973631552, 2.677793270940844, 2.6757222341106477, 2.6737336306472197,
        2.671822636241004, 2.6699847957348917, 2.6682159884861933, 2.666512397556063,
        2.664870482241971, 2.6632869535376584, 2.6617587521629673, 2.6602830288550368,
        2.6174211451068654,
    ),
}

#: ``aggregate_sweeps(five_seed_sweeps(), confidence=c).ci_half_width`` as
#: ``float.hex``, recorded while the t value still came from scipy.
CI_HALF_WIDTH_HEX = {
    0.90: {
        "DCTA": ["0x1.fcb8bd08268c8p-2", "0x1.20a1eb9e0397ep+0", "0x1.d56bd6f0b5e7dp-2",
                 "0x1.95843c9cc4d0fp-1", "0x1.ab59aa3b5cd02p+0"],
        "RM": ["0x1.6a78e2e0da500p+1", "0x1.c8482ca9ca1fcp+1", "0x1.11eafa31294c9p+1",
               "0x1.bcf4c12f3c88cp+1", "0x1.eca8b31d92c12p+1"],
    },
    0.95: {
        "DCTA": ["0x1.4b455b00ad828p-1", "0x1.77e7bb4a6217dp+0", "0x1.31adde519056bp-1",
                 "0x1.0810c59adb89cp+0", "0x1.164883511084cp+1"],
        "RM": ["0x1.d8125089aa7f7p+1", "0x1.291f81b121fd2p+2", "0x1.64bdcadd56289p+1",
               "0x1.21bf7416d5ee2p+2", "0x1.40cfaa5a1cb53p+2"],
    },
    0.99: {
        "DCTA": ["0x1.12ab13b0767d6p+0", "0x1.37ad156f4bcecp+1", "0x1.fae6056bb3c95p-1",
                 "0x1.b5e4504c9bfc3p+0", "0x1.cd77fc707f54bp+1"],
        "RM": ["0x1.8769358e55b5dp+2", "0x1.ecb5cf7ae0716p+2", "0x1.27c96605d1e93p+2",
               "0x1.e07ae8bb48268p+2", "0x1.09fee9266276ep+3"],
    },
}


def five_seed_sweeps() -> list[SweepResult]:
    results = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        results.append(
            SweepResult(
                "M",
                (2, 4, 6, 8, 10),
                {
                    "RM": list(20.0 + 3.0 * rng.standard_normal(5)),
                    "DCTA": list(8.0 + rng.standard_normal(5)),
                },
            )
        )
    return results


def make_result(offset: float) -> SweepResult:
    return SweepResult(
        "M",
        (2, 4),
        {"RM": [10.0 + offset, 8.0 + offset], "DCTA": [5.0 + offset / 2, 2.0 + offset / 2]},
    )


class TestAggregateSweeps:
    def test_mean_computed(self):
        agg = aggregate_sweeps([make_result(0.0), make_result(2.0)])
        assert np.allclose(agg.mean["RM"], [11.0, 9.0])
        assert agg.n_seeds == 2

    def test_single_seed_zero_ci(self):
        agg = aggregate_sweeps([make_result(0.0)])
        assert np.all(agg.ci_half_width["RM"] == 0.0)

    def test_ci_shrinks_with_more_seeds(self):
        rng = np.random.default_rng(0)
        few = aggregate_sweeps([make_result(float(rng.normal())) for _ in range(3)])
        many = aggregate_sweeps([make_result(float(rng.normal())) for _ in range(30)])
        assert many.ci_half_width["RM"].mean() < few.ci_half_width["RM"].mean()

    def test_shape_mismatch_rejected(self):
        other = SweepResult("M", (2, 6), {"RM": [1.0, 1.0], "DCTA": [1.0, 1.0]})
        with pytest.raises(DataError):
            aggregate_sweeps([make_result(0.0), other])

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            aggregate_sweeps([])

    def test_invalid_confidence(self):
        with pytest.raises(ConfigurationError):
            aggregate_sweeps([make_result(0.0)], confidence=1.5)

    def test_mean_speedup(self):
        agg = aggregate_sweeps([make_result(0.0)])
        assert agg.mean_speedup("RM") == pytest.approx((10 / 5 + 8 / 2) / 2)

    def test_table_renders_ci(self):
        agg = aggregate_sweeps([make_result(0.0), make_result(1.0)])
        text = agg.table()
        assert "±" in text and "95%" in text

    def test_separation_check(self):
        # RM and DCTA are far apart with tiny variance: separated.
        agg = aggregate_sweeps([make_result(0.0), make_result(0.01)])
        assert agg.separated("RM", "DCTA")


class TestRepeatSweep:
    def test_factory_called_per_seed(self):
        calls = []

        def factory(seed: int) -> SweepResult:
            calls.append(seed)
            return make_result(float(seed))

        agg = repeat_sweep(factory, [1, 2, 3])
        assert calls == [1, 2, 3]
        assert agg.n_seeds == 3

    def test_empty_seeds_rejected(self):
        with pytest.raises(DataError):
            repeat_sweep(lambda s: make_result(0.0), [])


class TestStudentTPpf:
    @pytest.mark.parametrize("confidence", sorted(T_PPF))
    def test_matches_recorded_scipy_table(self, confidence):
        p = 0.5 + confidence / 2.0
        for df, expected in zip(T_PPF_DFS, T_PPF[confidence]):
            assert student_t_ppf(p, df) == pytest.approx(expected, rel=1e-12, abs=0.0), df

    def test_symmetric_and_centered(self):
        assert student_t_ppf(0.5, 3) == 0.0
        assert student_t_ppf(0.25, 4) == -student_t_ppf(0.75, 4)

    def test_closed_forms(self):
        # df=1 is the Cauchy quantile; df=2 has t = (2p - 1) / sqrt(2p(1 - p)).
        assert student_t_ppf(0.75, 1) == pytest.approx(1.0, rel=1e-15)
        assert student_t_ppf(0.9, 2) == pytest.approx(0.8 / np.sqrt(0.18), rel=1e-15)

    @pytest.mark.parametrize("p, df", [(0.0, 3), (1.0, 3), (0.9, 0), (0.9, 2.5)])
    def test_invalid_arguments_rejected(self, p, df):
        with pytest.raises(ConfigurationError):
            student_t_ppf(p, df)


@pytest.mark.parametrize("confidence", sorted(CI_HALF_WIDTH_HEX))
def test_ci_half_width_matches_golden(confidence):
    agg = aggregate_sweeps(five_seed_sweeps(), confidence=confidence)
    got = {m: [float(v).hex() for v in agg.ci_half_width[m]] for m in agg.ci_half_width}
    assert got == CI_HALF_WIDTH_HEX[confidence]
