import pytest

from grainkit import VARIANT_NAMES, variant
from grainkit.anf import Anf, parse_expr
from grainkit.engine import RegisterSpec, SystemSpec
from grainkit.specfile import SpecError, format_spec, parse_spec
from grainkit.variants import document


def test_shipped_grain80_document():
    doc = parse_spec(document("grain80-fib"))
    assert doc.name == "grain80-fib"
    assert doc.system.register_ids() == ("b", "s")
    assert doc.system.output_names() == ("H", "Z")
    assert len(doc.system.injections) == 2
    assert doc.system.params == {"init_cycles": 160}
    assert doc.system.output("Z").refs == ("H",)


def test_index_out_of_range_reports_line():
    text = "system t\nregister b 80\nfeedback b[80] = b[0]\n"
    with pytest.raises(SpecError) as exc:
        parse_spec(text)
    assert exc.value.line == 3
    assert "out of range" in exc.value.message


def test_empty_document_is_an_error():
    with pytest.raises(SpecError) as exc:
        parse_spec("")
    assert "no system declared" in exc.value.message


def test_unknown_directive_reports_line():
    with pytest.raises(SpecError) as exc:
        parse_spec("system t\nregister r 4\nfrobnicate r\n")
    assert exc.value.line == 3
    assert "unknown directive" in exc.value.message


def test_document_must_open_with_system():
    with pytest.raises(SpecError) as exc:
        parse_spec("register r 4\n")
    assert exc.value.line == 1


def test_undeclared_register_in_expression():
    with pytest.raises(SpecError) as exc:
        parse_spec("system t\nregister r 4\nfeedback r[3] = q[0]\n")
    assert "undeclared register" in exc.value.message


def test_output_reference_must_stand_alone():
    text = (
        "system t\nregister r 4\n"
        "output A = r[0]\noutput B = r[1]*A\n"
    )
    with pytest.raises(SpecError) as exc:
        parse_spec(text)
    assert exc.value.line == 4


def test_output_reference_only_in_outputs():
    text = "system t\nregister r 4\noutput A = r[0]\nfeedback r[3] = A\n"
    with pytest.raises(SpecError) as exc:
        parse_spec(text)
    assert exc.value.line == 4


def test_forward_output_reference_rejected():
    text = "system t\nregister r 4\noutput B = A\noutput A = r[0]\n"
    with pytest.raises(SpecError) as exc:
        parse_spec(text)
    assert exc.value.line == 3


@pytest.mark.parametrize(
    "line, column",
    [
        ("output Z = r[0] + Z", 19),
        ("feedback r[3] = r[0] + r[1] + + r[2]", 30),
    ],
)
def test_error_column_points_at_failing_token(line, column):
    with pytest.raises(SpecError) as exc:
        parse_spec(f"system t\nregister r 4\n{line}\n")
    assert (exc.value.line, exc.value.column) == (3, column)


def test_duplicate_directives_rejected():
    with pytest.raises(SpecError):
        parse_spec("system t\nregister r 4\nregister r 4\n")
    with pytest.raises(SpecError):
        parse_spec("system t\nsystem u\nregister r 4\n")
    with pytest.raises(SpecError):
        parse_spec("system t\nregister r 4\nparam x = 1\nparam x = 2\n")


@pytest.mark.parametrize("name", VARIANT_NAMES)
def test_round_trip_on_bundled_documents(name):
    doc = parse_spec(document(name))
    text = format_spec(doc)
    again = parse_spec(text)
    assert again.system == doc.system
    assert again.name == doc.name
    # formatting is idempotent
    assert format_spec(again) == text


def test_variant_systems_match_documents():
    for name in VARIANT_NAMES:
        doc = parse_spec(document(name))
        assert (doc.name, doc.system) == (name, variant(name).system)


def test_pure_shift_bits_are_omitted():
    text = "system t\nregister r 4\nfeedback r[1] = r[2]\nfeedback r[3] = r[0] + r[1]\n"
    out = format_spec(parse_spec(text))
    assert "feedback r[1]" not in out
    assert out.count("feedback") == 1


def test_constant_zero_feedback_prints_as_zero():
    spec = SystemSpec([RegisterSpec("r", 4, {2: Anf.zero()})])
    out = format_spec(spec, name="t")
    assert "feedback r[2] = 0" in out
    assert parse_spec(out).system == spec


def test_literal_constants_in_expressions():
    doc = parse_spec("system t\nregister r 4\nfeedback r[3] = r[0] + 1 + r[1]*0\n")
    assert doc.system.register("r").feedback[3] == parse_expr("r[0] + 1")


def test_comments_and_blank_lines_ignored():
    text = "# heading\nsystem t  # name\n\nregister r 4\n  # done\n"
    assert parse_spec(text).name == "t"


HEAD = "system t\nregister r 4\n"
OUT = HEAD + "output Z = r[0]\n"


@pytest.mark.parametrize(
    "text, error",
    [
        (HEAD + "feedback r[3] = r[0] + r[4]\n",
         "line 3, column 24: index 4 out of range for register 'r' of length 4"),
        ("system\n", "line 1, column 1: expected 'system <name>'"),
        ("system t\nregister r\n", "line 2, column 1: expected 'register <id> <length>'"),
        ("system t\nregister r 0\n", "line 2, column 1: register 'r' needs positive length"),
        (HEAD + "feedback r[3] r[0]\n",
         "line 3, column 1: expected 'feedback <id>[<i>] = <expr>'"),
        (HEAD + "feedback q[3] = r[0]\n", "line 3, column 1: undeclared register 'q'"),
        (HEAD + "feedback r[3] = r[0]\nfeedback r[3] = r[1]\n",
         "line 4, column 1: duplicate feedback for r[3]"),
        (HEAD + "output Z\n", "line 3, column 1: expected 'output <NAME> = <expr>'"),
        (HEAD + "output r = r[0]\n", "line 3, column 1: name 'r' already in use"),
        (OUT + "output Z = r[1]\n", "line 4, column 1: name 'Z' already in use"),
        (HEAD + "inject init r[3]\n",
         "line 3, column 1: expected 'inject <mode> <id>[<i>] = <NAME>'"),
        (OUT + "inject init q[3] = Z\n", "line 4, column 1: undeclared register 'q'"),
        (OUT + "inject init r[4] = Z\n", "line 4, column 1: index 4 out of range for 'r'"),
        (HEAD + "inject init r[3] = Z\n", "line 3, column 1: 'Z' is not a declared output"),
        (HEAD + "param x = y\n", "line 3, column 1: expected 'param <key> = <int>'"),
        ("system t\n", "line 1, column 1: the system declares no registers"),
    ],
)
def test_malformed_documents_give_line_column_and_message(text, error):
    with pytest.raises(SpecError) as exc:
        parse_spec(text)
    assert str(exc.value) == error


def test_output_written_as_a_bare_reference_round_trips():
    doc = parse_spec(OUT + "output Y = Z\n")
    assert doc.system.output("Y").refs == ("Z",) and doc.system.output("Y").expr.is_zero()
    text = format_spec(doc)
    assert "output Y = Z\n" in text
    assert parse_spec(text).system == doc.system
