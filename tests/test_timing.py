import pytest

from grainkit import variant
from grainkit.anf import Anf, parse_expr
from grainkit.engine import OutputSpec, RegisterSpec, SystemSpec
from grainkit.timing import (
    CostModel,
    area_proxy,
    critical_depths,
    divider_factor,
    expr_depth,
    parse_cost_model,
)


def test_single_variable_has_zero_depth():
    assert expr_depth(parse_expr("b[0]")) == 0
    assert expr_depth(Anf.zero()) == 0
    assert expr_depth(parse_expr("1")) == 0


def test_grain80_fibonacci_feedback_depth():
    g = variant("grain80-fib").system.register("b").feedback[79]
    assert expr_depth(g) == 8  # 23 leaves -> 5 levels, degree 6 -> 3 levels


def test_grain80_galois_1_register_depth():
    report = critical_depths(variant("grain80-galois-1").system)
    assert report.register_depths["b"] == 5
    assert report.expr_depths["b[65]"] == 5


def test_referenced_output_counts_as_leaf_of_its_depth():
    env = {"H": 6}
    z = variant("grain80-fib").system.output("Z")
    assert expr_depth(z.expr, z.refs, env) == 9
    with pytest.raises(ValueError):
        expr_depth(z.expr, z.refs, {})


def test_pure_shift_register_report():
    report = critical_depths(SystemSpec([RegisterSpec("r", 8)]))
    assert report.keygen_depth == 0
    assert report.init_depth == 0
    assert report.divider == 1
    assert report.divider_area_overhead_ge is None


def test_grain80_galois_1_init_path_dominates():
    report = critical_depths(variant("grain80-galois-1").system)
    assert report.init_depth > report.register_depths["b"]
    assert report.init_depth > report.keygen_depth
    assert report.divider >= 2
    assert report.divider_area_overhead_ge == 25.67


def test_divider_factor_cases():
    assert divider_factor(5, 5) == 1
    assert divider_factor(8, 2) == 4
    assert divider_factor(3, 2) == 2
    assert divider_factor(0, 0) == 1
    with pytest.warns(UserWarning):
        assert divider_factor(9, 2) == 4
    with pytest.warns(UserWarning):
        assert divider_factor(1, 0) == 4


def test_divider_factor_monotonicity():
    for keygen in range(1, 8):
        previous = 1
        for init in range(0, 40):
            d = divider_factor(init, keygen) if init <= 4 * keygen else 4
            assert d >= previous
            previous = d
    for init in range(1, 8):
        previous = 4
        for keygen in range(1, 40):
            d = divider_factor(init, keygen) if init <= 4 * keygen else 4
            assert d <= previous
            previous = d


def test_area_proxy_examples():
    single = SystemSpec([RegisterSpec("r", 4, {3: parse_expr("r[0]")})])
    # an explicit pure shift normalizes away entirely
    assert area_proxy(single) == 0.0
    toy = SystemSpec([RegisterSpec("r", 4, {3: parse_expr("r[0] + r[1]*r[2]")})])
    assert area_proxy(toy) == 2.0  # one XOR, one AND
    assert area_proxy(toy, CostModel(xor2=3.0, and2=5.0)) == 8.0


def _and_gate_count(system):
    return area_proxy(system, CostModel(1.0, 2.0)) - area_proxy(system, CostModel(1.0, 1.0))


def test_shifting_preserves_and_gates():
    for family in ("grain80", "grain128"):
        fib = variant(f"{family}-fib").system
        for k in (1, 4, 8, 16):
            name = f"{family}-galois-{k}"
            try:
                gal = variant(name).system
            except KeyError:
                continue
            assert _and_gate_count(gal) == _and_gate_count(fib), name


def test_galois_register_depths_beat_fibonacci():
    for family in ("grain80", "grain128"):
        fib = critical_depths(variant(f"{family}-fib").system)
        fib_worst = max(fib.register_depths.values())
        for k in (1, 4, 8, 16):
            name = f"{family}-galois-{k}"
            try:
                gal = critical_depths(variant(name).system)
            except KeyError:
                continue
            assert max(gal.register_depths.values()) < fib_worst, name


def test_cost_model_file():
    cm = parse_cost_model("# weights\nweight xor2 = 1.5\nweight and2 = 0.75\n")
    assert cm == CostModel(1.5, 0.75)
    assert parse_cost_model("") == CostModel()
    with pytest.raises(ValueError):
        parse_cost_model("weight nand3 = 1.0")
    with pytest.raises(ValueError):
        parse_cost_model("xor2 = 1.0")
    with pytest.raises(ValueError):
        CostModel(0.0, 1.0)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400", "0", "-1.5"])
def test_cost_model_refuses_weights_that_are_not_finite_and_positive(value):
    with pytest.raises(ValueError, match="and2 weight must be finite and positive"):
        parse_cost_model(f"weight xor2 = 2\nweight and2 = {value}\n")
    with pytest.raises(ValueError, match="xor2 weight must be finite and positive"):
        CostModel(xor2=float(value))


def test_cost_model_names_the_line_of_a_number_that_does_not_parse():
    with pytest.raises(ValueError, match=r"^line 2: 'abc' is not a number$"):
        parse_cost_model("weight xor2 = 1.0\nweight and2 = abc\n")


def test_cost_model_refuses_a_repeated_gate():
    with pytest.raises(ValueError, match=r"^line 3: duplicate weight for 'xor2'$"):
        parse_cost_model("weight xor2 = 1.0\n# again\nweight xor2 = 2.0\n")


def test_output_chain_depths():
    reg = RegisterSpec("r", 8)
    system = SystemSpec(
        [reg],
        [
            OutputSpec("A", parse_expr("r[0]*r[1] + r[2]")),
            OutputSpec("B", parse_expr("r[3]"), refs=("A",)),
        ],
    )
    report = critical_depths(system)
    assert report.expr_depths["A"] == 2
    assert report.expr_depths["B"] == 3
    assert report.keygen_depth == 3
