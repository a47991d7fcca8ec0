"""The stack machine: word arithmetic, every opcode, and the runner."""

import io

import pytest

import checks
from pl0plus import pvm
from pl0plus.pcode import Annotation, Instruction, Program, program_to_xml
from pl0plus.pvm import (BAD_CODE_ADDRESS, BAD_INPUT, BAD_STACK_ACCESS,
                         DIVISION_BY_ZERO, STEP_LIMIT, WORD_MAX, WORD_MIN,
                         InputError, MachineState, PvmRuntimeError, StreamIo,
                         load, parse_interpreter_args, run, step, wrap32)
from pl0plus.xmldoc import parse_document, serialize_document
from reference import ListIo, reference_eval


def code(*specs):
    return [Instruction(address, op, level, param)
            for address, (op, level, param) in enumerate(specs)]


def booted(instructions):
    state = MachineState(code=instructions)
    state.stack = [-1, -1, 0]
    return state


def operate(opr_code, stack):
    state = MachineState(code=code(("OPR", None, opr_code)))
    state.stack = list(stack)
    state.t = len(stack) - 1
    step(state, ListIo())
    return state.stack[:state.t + 1]


class TestRecords:
    def test_instruction_equality_ignores_annotations(self):
        plain = Instruction(0, "CAR", 1, 3)
        noted = Instruction(0, "CAR", 1, 3,
                            [Annotation({"linea": "2"}, "nota")])
        assert plain == noted
        assert plain != Instruction(0, "CAR", 0, 3)
        assert plain.annotations == []

    def test_program_equality(self):
        assert Program(code(("RET", None, None))) == \
            Program(code(("RET", None, None)))
        assert Program([]) != Program(code(("RET", None, None)))

    def test_machine_state_defaults(self):
        first, second = MachineState([]), MachineState([])
        first.stack.append(1)
        assert (second.p, second.b, second.t, second.stack,
                second.halted) == (0, 0, -1, [], False)
        assert first != second


class TestWrap32:
    def test_identity_inside_the_range(self):
        for value in (0, 1, -1, 12345, WORD_MIN, WORD_MAX):
            assert wrap32(value) == value

    def test_wraps_at_both_ends(self):
        assert wrap32(WORD_MAX + 1) == WORD_MIN
        assert wrap32(WORD_MIN - 1) == WORD_MAX
        assert wrap32(1 << 31) == WORD_MIN
        assert wrap32(1 << 32) == 0
        assert wrap32(-(1 << 32)) == 0
        assert wrap32((1 << 32) + 7) == 7


class TestIo:
    def test_list_io_reads_in_order(self):
        channel = ListIo([3, -1])
        assert channel.read_integer() == 3
        assert channel.read_integer() == -1
        with pytest.raises(InputError):
            channel.read_integer()

    def test_list_io_collects_outputs(self):
        channel = ListIo()
        channel.write_integer(10)
        channel.write_integer(-4)
        assert channel.outputs == [10, -4]

    def test_stream_io_splits_on_whitespace(self):
        channel = StreamIo(stdin=io.StringIO("7 -5\n\n9\n"))
        assert [channel.read_integer() for _ in range(3)] == [7, -5, 9]
        with pytest.raises(InputError):
            channel.read_integer()

    def test_stream_io_rejects_non_integers(self):
        channel = StreamIo(stdin=io.StringIO("siete\n"))
        with pytest.raises(InputError):
            channel.read_integer()

    def test_stream_io_reads_a_long_line_like_one_per_line(self):
        values = [(-1) ** n * n for n in range(5000)]
        for text in (" ".join(map(str, values)) + "\n",
                     "".join(f"{value}\n" for value in values)):
            channel = StreamIo(stdin=io.StringIO(text))
            assert [channel.read_integer() for _ in values] == values
            with pytest.raises(InputError) as info:
                channel.read_integer()
            assert str(info.value) == "fin de la entrada"

    def test_stream_io_takes_a_sign_and_ascii_digits(self):
        channel = StreamIo(stdin=io.StringIO("+5 -0 007 -2147483648\n"))
        assert [channel.read_integer() for _ in range(4)] == [
            5, 0, 7, -2147483648]

    @pytest.mark.parametrize("token", [
        "0_1", "1_000", "٣", "+", "-", "+-1", "--1", "1-", "1.0", "0x10",
        "١٢", "²", pytest.param("9" * 5000, id="5000-digits")])
    def test_stream_io_rejects_what_only_int_would_take(self, token):
        channel = StreamIo(stdin=io.StringIO(f"{token}\n"))
        with pytest.raises(InputError) as info:
            channel.read_integer()
        assert str(info.value) == f"no es un entero: '{token}'"

    @pytest.mark.parametrize("count", [
        "٤", "+4", "0_1", "4 ", pytest.param("9" * 5000, id="5000-digits")])
    def test_max_pasos_takes_ascii_digits_only(self, count, capsys):
        with pytest.raises(SystemExit) as info:
            parse_interpreter_args(["--max-pasos", count, "objeto.p+"])
        assert info.value.code == 2
        assert (f"no es un número de pasos: '{count}'"
                in capsys.readouterr().err)

    def test_max_pasos_takes_leading_zeros(self):
        assert parse_interpreter_args(
            ["--max-pasos", "007", "objeto.p+"]).max_steps == 7

    def test_stream_io_writes_one_value_per_line(self):
        out = io.StringIO()
        channel = StreamIo(stdout=out)
        channel.write_integer(10)
        channel.write_integer(-3)
        assert out.getvalue() == "10\n-3\n"


class TestOpcodes:
    def test_lit_pushes_wrapped_value(self):
        state = MachineState(code=code(("LIT", None, 1 << 31)))
        step(state, ListIo())
        assert (state.t, state.stack[0], state.p) == (0, WORD_MIN, 1)

    def test_car_copies_a_cell_to_the_top(self):
        state = MachineState(code=code(("CAR", 0, 0)))
        state.stack, state.t = [7], 0
        step(state, ListIo())
        assert state.stack[:2] == [7, 7]
        assert state.t == 1

    def test_car_outside_the_frame_fails(self):
        state = MachineState(code=code(("CAR", 0, 5)))
        state.stack, state.t = [7], 0
        with pytest.raises(PvmRuntimeError, match=BAD_STACK_ACCESS):
            step(state, ListIo())

    def test_alm_pops_into_a_cell(self):
        state = MachineState(code=code(("ALM", 0, 0)))
        state.stack, state.t = [0, 9], 1
        step(state, ListIo())
        assert (state.stack[0], state.t) == (9, 0)

    def test_alm_into_unclaimed_cell_fails(self):
        state = MachineState(code=code(("ALM", 0, 0)))
        state.stack, state.t = [9], 0
        with pytest.raises(PvmRuntimeError, match=BAD_STACK_ACCESS):
            step(state, ListIo())

    def test_sal_jumps_unconditionally(self):
        state = MachineState(code=code(("SAL", None, 9)))
        step(state, ListIo())
        assert (state.p, state.t) == (9, -1)

    def test_sac_jumps_on_zero_and_pops_either_way(self):
        taken = MachineState(code=code(("SAC", None, 9)))
        taken.stack, taken.t = [0], 0
        step(taken, ListIo())
        assert (taken.p, taken.t) == (9, -1)
        skipped = MachineState(code=code(("SAC", None, 9)))
        skipped.stack, skipped.t = [1], 0
        step(skipped, ListIo())
        assert (skipped.p, skipped.t) == (1, -1)

    def test_ins_claims_and_zeroes_variable_cells(self):
        state = booted(code(("INS", None, 5)))
        state.stack = [-1, -1, 0, 77, 88]
        step(state, ListIo())
        assert state.t == 4
        assert state.stack == [-1, -1, 0, 0, 0]

    def test_ins_grows_the_stack(self):
        state = booted(code(("INS", None, 6)))
        step(state, ListIo())
        assert state.t == 5
        assert state.stack == [-1, -1, 0, 0, 0, 0]

    def test_ins_cannot_shrink_below_empty(self):
        state = MachineState(code=code(("INS", None, -1)))
        with pytest.raises(PvmRuntimeError, match=BAD_STACK_ACCESS):
            step(state, ListIo())

    def test_ins_may_claim_nothing_on_an_empty_stack(self):
        state = MachineState(code=code(("INS", None, 0)))
        step(state, ListIo())
        assert (state.t, state.p) == (-1, 1)

    def test_ins_respects_the_stack_limit(self):
        state = booted(code(("INS", None, 50)))
        state.stack_limit = 10
        with pytest.raises(PvmRuntimeError, match=BAD_STACK_ACCESS):
            step(state, ListIo())

    def test_lee_pushes_wrapped_input(self):
        state = MachineState(code=code(("LEE", None, None)))
        step(state, ListIo([1 << 31]))
        assert state.stack[0] == WORD_MIN

    def test_lee_without_input_fails(self):
        state = MachineState(code=code(("LEE", None, None)))
        with pytest.raises(PvmRuntimeError, match=BAD_INPUT):
            step(state, ListIo())

    def test_esc_pops_and_writes(self):
        state = MachineState(code=code(("ESC", None, None)))
        state.stack, state.t = [42], 0
        channel = ListIo()
        step(state, channel)
        assert channel.outputs == [42]
        assert state.t == -1

    def test_esc_on_empty_stack_fails(self):
        state = MachineState(code=code(("ESC", None, None)))
        with pytest.raises(PvmRuntimeError, match=BAD_STACK_ACCESS):
            step(state, ListIo())


class TestOperations:
    def test_negate(self):
        assert operate(1, [5]) == [-5]
        assert operate(1, [0]) == [0]

    def test_negate_wraps_the_minimum(self):
        assert operate(1, [WORD_MIN]) == [WORD_MIN]

    def test_add(self):
        assert operate(2, [1, 2]) == [3]
        assert operate(2, [WORD_MAX - 1, 1]) == [WORD_MAX]
        assert operate(2, [WORD_MIN + 1, -1]) == [WORD_MIN]
        assert operate(2, [WORD_MAX, 1]) == [WORD_MIN]
        assert operate(2, [WORD_MIN, -1]) == [WORD_MAX]

    def test_subtract(self):
        assert operate(3, [3, 5]) == [-2]
        assert operate(3, [WORD_MAX - 1, -1]) == [WORD_MAX]
        assert operate(3, [WORD_MIN + 1, 1]) == [WORD_MIN]
        assert operate(3, [WORD_MAX, -1]) == [WORD_MIN]
        assert operate(3, [WORD_MIN, 1]) == [WORD_MAX]

    def test_multiply(self):
        assert operate(4, [6, 7]) == [42]
        assert operate(4, [1 << 16, 1 << 16]) == [0]
        assert operate(4, [WORD_MAX, 1]) == [WORD_MAX]
        assert operate(4, [-(1 << 16), 1 << 15]) == [WORD_MIN]
        assert operate(4, [1 << 16, 1 << 15]) == [WORD_MIN]
        # -2**31 - 2**16: 2**16 past the lower end
        assert operate(4, [-(1 << 16), (1 << 15) + 1]) == [WORD_MAX - 0xFFFF]
        assert operate(4, [WORD_MIN, -1]) == [WORD_MIN]

    def test_divide_the_minimum_by_minus_one_wraps(self):
        assert operate(5, [WORD_MIN, -1]) == [WORD_MIN]
        assert operate(5, [WORD_MIN, 1]) == [WORD_MIN]

    def test_divide_truncates_toward_zero(self):
        assert operate(5, [7, 2]) == [3]
        assert operate(5, [-7, 2]) == [-3]
        assert operate(5, [7, -2]) == [-3]
        assert operate(5, [-7, -2]) == [3]
        assert operate(5, [0, 5]) == [0]

    def test_divide_by_zero(self):
        with pytest.raises(PvmRuntimeError, match=DIVISION_BY_ZERO):
            operate(5, [7, 0])

    def test_odd(self):
        assert operate(6, [5]) == [1]
        assert operate(6, [4]) == [0]
        assert operate(6, [-5]) == [1]
        assert operate(6, [-4]) == [0]

    @pytest.mark.parametrize("opr_code,true_pair,false_pair", [
        (8, (2, 2), (2, 3)),
        (9, (2, 3), (2, 2)),
        (10, (2, 3), (3, 3)),
        (11, (3, 3), (2, 3)),
        (12, (4, 3), (3, 3)),
        (13, (3, 3), (4, 3)),
    ])
    def test_relations_yield_flags(self, opr_code, true_pair, false_pair):
        assert operate(opr_code, list(true_pair)) == [1]
        assert operate(opr_code, list(false_pair)) == [0]

    def test_unknown_operation(self):
        with pytest.raises(PvmRuntimeError, match="Operación inválida"):
            operate(7, [1, 2])

    def test_operand_underflow(self):
        with pytest.raises(PvmRuntimeError, match=BAD_STACK_ACCESS):
            operate(2, [1])
        with pytest.raises(PvmRuntimeError, match=BAD_STACK_ACCESS):
            operate(1, [])


class TestFrames:
    CHAIN_OPS = ("CAR", "ALM", "LLA")

    def three_frames(self, op, level):
        # main at 0, a callee at 4, its nested callee at 8; each frame has
        # one variable, and a 7 is pushed for ALM to store
        state = MachineState(code=code((op, level, 3)))
        state.stack = [-1, -1, 0, 100, 0, 0, 2, 200, 4, 4, 0, 300, 7]
        state.t = 12
        state.b = 8
        return state

    def test_car_alm_and_lla_walk_the_static_chain(self):
        for level, frame in ((0, 8), (1, 4), (2, 0)):
            car = self.three_frames("CAR", level)
            step(car, ListIo())
            assert car.stack[car.t] == car.stack[frame + 3]
            alm = self.three_frames("ALM", level)
            step(alm, ListIo())
            assert (alm.stack[frame + 3], alm.t) == (7, 11)
            lla = self.three_frames("LLA", level)
            step(lla, ListIo())
            assert lla.stack[13:16] == [frame, 8, 1]   # the callee's links
            assert (lla.b, lla.p) == (13, 3)

    def test_the_chain_stops_at_the_bootstrap_link(self):
        for op in self.CHAIN_OPS:
            with pytest.raises(PvmRuntimeError, match=BAD_STACK_ACCESS):
                step(self.three_frames(op, 3), ListIo())

    def test_the_chain_rejects_links_outside_the_stack(self):
        for op in self.CHAIN_OPS:
            state = self.three_frames(op, 2)
            state.stack[8] = 999
            with pytest.raises(PvmRuntimeError, match=BAD_STACK_ACCESS):
                step(state, ListIo())

    def test_call_and_return_keep_the_stack_balanced(self):
        state = booted(code(
            ("INS", None, 3),
            ("LLA", 0, 3),
            ("SAL", None, 5),
            ("INS", None, 3),
            ("RET", None, None),
            ("RET", None, None),
        ))
        channel = ListIo()
        step(state, channel)                       # main INS
        assert (state.t, state.b) == (2, 0)
        step(state, channel)                       # LLA
        assert (state.b, state.p) == (3, 3)
        assert state.stack[3:6] == [0, 0, 2]
        step(state, channel)                       # callee INS
        assert state.t == 5
        step(state, channel)                       # callee RET
        assert (state.t, state.b, state.p) == (2, 0, 2)
        assert not state.halted
        step(state, channel)                       # SAL past the callee
        step(state, channel)                       # main RET
        assert state.halted
        assert (state.t, state.p) == (-1, 0)

    def test_return_halts_only_from_the_main_frame(self):
        state = MachineState(code=code(("RET", None, None),
                                       ("RET", None, None)))
        state.stack = [-1, -1, 1]
        step(state, ListIo())
        assert not state.halted
        assert state.p == 1

    def test_return_without_a_frame_fails(self):
        state = MachineState(code=code(("RET", None, None)))
        state.b = 10
        with pytest.raises(PvmRuntimeError, match=BAD_STACK_ACCESS):
            step(state, ListIo())


class TestStepAndRun:
    def test_step_after_halt_does_nothing(self):
        state = MachineState(code=[])
        state.halted, state.p = True, 99
        assert step(state, ListIo()) is state
        assert state.p == 99

    def test_step_outside_the_code_fails(self):
        state = MachineState(code=code(("RET", None, None)))
        state.p = 99
        with pytest.raises(PvmRuntimeError) as info:
            step(state, ListIo())
        assert info.value.message == BAD_CODE_ADDRESS
        assert info.value.address == 99

    JUMPS_OUT = [
        pytest.param([("SAL", None, 9)], 9, id="sal-past-the-code"),
        pytest.param([("LIT", None, 0), ("SAC", None, -2)], -2,
                     id="sac-to-a-negative-address"),
        pytest.param([("LLA", 0, 1)], 1, id="lla-to-the-end"),
    ]

    @pytest.mark.parametrize("specs, target", JUMPS_OUT)
    def test_step_keeps_a_jump_out_of_the_code(self, specs, target):
        state = machine(specs, loadable=False)
        state.stack[:3] = [-1, -1, 0]
        for _ in specs:
            step(state, ListIo())
        assert (state.p, state.halted) == (target, False)
        with pytest.raises(PvmRuntimeError) as info:
            step(state, ListIo())
        assert (info.value.message, info.value.address) == (BAD_CODE_ADDRESS,
                                                            target)
        assert state.p == target

    @pytest.mark.parametrize("specs, target", JUMPS_OUT)
    def test_run_keeps_a_jump_out_of_the_code(self, specs, target):
        for steps, message in ((len(specs), STEP_LIMIT),
                               (len(specs) + 1, BAD_CODE_ADDRESS)):
            state = machine(specs, loadable=False)
            err = io.StringIO()
            assert run(state, ListIo(), err=err, max_steps=steps) == 1
            assert err.getvalue() == ("Error en tiempo de ejecución: "
                                      f"{message} (dirección {target})\n")
            assert (state.p, state.halted) == (target, False)

    def test_errors_carry_the_faulting_address(self):
        state = MachineState(code=code(("SAL", None, 1),
                                       ("ESC", None, None)))
        step(state, ListIo())
        with pytest.raises(PvmRuntimeError) as info:
            step(state, ListIo())
        assert info.value.address == 1

    def test_run_writes_the_main_linkage(self):
        state = MachineState(code=code(("RET", None, None)))
        err = io.StringIO()
        assert run(state, ListIo(), err=err) == 0
        assert state.stack[:3] == [-1, -1, 0]
        assert (state.halted, state.t) == (True, -1)
        assert err.getvalue() == ""

    def test_run_reports_runtime_errors(self):
        state = MachineState(code=code(("OPR", None, 5)))
        err = io.StringIO()
        assert run(state, ListIo(), err=err) == 1
        assert err.getvalue() == ("Error en tiempo de ejecución: "
                                  "Acceso inválido a la pila (dirección 0)\n")

    def test_debug_mode_traces_each_step(self):
        state = MachineState(code=code(("RET", None, None)))
        err = io.StringIO()
        control = io.StringIO("\n")
        assert run(state, ListIo(), debug=True, control=control, err=err) == 0
        trace = err.getvalue()
        assert trace.startswith("p=0 b=0 t=-1")
        assert "0 RET" in trace
        assert "pila: []" in trace

    def test_debug_mode_traces_an_address_outside_the_code(self):
        state = machine([("SAL", None, 9)], loadable=False)
        err = io.StringIO()
        assert run(state, ListIo(), debug=True, control=io.StringIO(),
                   err=err) == 1
        assert err.getvalue().splitlines()[1:] == [
            "p=9 b=0 t=-1  9 ???  pila: []",
            f"Error en tiempo de ejecución: {BAD_CODE_ADDRESS} "
            "(dirección 9)"]

    def test_the_code_is_decoded_once_per_machine(self, monkeypatch):
        calls = []

        def counted(code):
            calls.append(len(code))
            return decode(code)

        decode = pvm._decode
        monkeypatch.setattr(pvm, "_decode", counted)
        state = load(program_to_xml(checks.seeded(1000).program))
        assert len(calls) == 1
        state.stack[:3] = [-1, -1, 0]
        channel = ListIo([3] * 100)
        for _ in range(100):
            step(state, channel)
        assert (state.halted, calls) == (False, [len(state.code)])

    def test_load_rejects_empty_programs(self):
        from pl0plus.xmldoc import XmlLoadError
        with pytest.raises(XmlLoadError):
            load("<codigo_pmas/>")

    def test_runaway_recursion_hits_the_stack_limit(self):
        program = checks.compile_clean(
            "procedure p;\nbegin call p end;\nbegin call p end.").program
        state = load(program_to_xml(program))
        state.stack_limit = 1000
        err = io.StringIO()
        assert run(state, ListIo(), err=err) == 1
        assert BAD_STACK_ACCESS in err.getvalue()


class TestPrograms:
    def test_cross_frame_variable_access(self, capsys):
        program = checks.compile_clean(
            "var x;\n"
            "procedure p;\n"
            "begin x := x + 1 end;\n"
            "begin x := 40; call p; call p; write x end.").program
        assert checks.run_vm(program, []) == (0, [42])

    def test_overflow_wraps_in_the_compiled_route_too(self):
        artifacts = checks.compile_clean(
            "const tope=2147483647;\nvar x;\n"
            "begin x := tope + 1; write x; end.")
        assert checks.run_vm(artifacts.program, []) == (0, [WORD_MIN])
        assert reference_eval(artifacts.revised) == [WORD_MIN]

    def test_division_matches_the_reference(self, capsys):
        artifacts = checks.compile_clean(
            "var a, b, c;\nbegin read a; read b; c := a / b; write c; end.")
        for pair in ((-7, 2), (7, -2), (-7, -2), (7, 2)):
            assert checks.run_vm(artifacts.program, pair) == \
                (0, reference_eval(artifacts.revised, pair))

    def test_division_by_zero_at_runtime(self, capsys):
        artifacts = checks.compile_clean(
            "var x, y;\nbegin read x; y := 1; write y; x := y / x; end.")
        exit_code, outputs = checks.run_vm(artifacts.program, [0])
        assert (exit_code, outputs) == (1, [1])
        assert DIVISION_BY_ZERO in capsys.readouterr().err
        with pytest.raises(PvmRuntimeError, match=DIVISION_BY_ZERO):
            reference_eval(artifacts.revised, [0])

    def test_exhausted_input_at_runtime(self, capsys):
        artifacts = checks.compile_clean("var x;\nbegin read x end.")
        assert checks.run_vm(artifacts.program, []) == (1, [])
        assert BAD_INPUT in capsys.readouterr().err
        with pytest.raises(PvmRuntimeError, match=BAD_INPUT):
            reference_eval(artifacts.revised, [])

    def test_fibonacci_sequence(self, capsys):
        artifacts = checks.corpus("fibonacci.pl0+")
        expected = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
        assert checks.run_vm(artifacts.program, [10]) == (0, expected)
        assert reference_eval(artifacts.revised, [10]) == expected


def machine(specs, loadable=True, stack_limit=None):
    """A machine for hand-written instructions: loaded from their `.p+`
    text, like a hand-edited file, or built directly when `load` would
    refuse them."""
    instructions = code(*specs)
    if loadable:
        text = serialize_document(
            parse_document(program_to_xml(Program(instructions))))
        state = load(text)
    else:
        state = MachineState(code=instructions)
    if stack_limit is not None:
        state.stack_limit = stack_limit
    return state


MAIN = ("INS", None, 3)
RET = ("RET", None, None)
# main's static link overwritten to point at main's own frame
SELF_LINKED = [("INS", None, 4), ("LIT", None, 0),
               ("ALM", 0, 0)]


def returned_to(b):
    """A procedure stores `b` in its own dynamic link and returns, so the
    register b holds it when the instruction at 7 runs, with 7 cells on
    the stack."""
    return [("SAL", None, 5), MAIN, ("LIT", None, b), ("ALM", 0, 1), RET,
            MAIN, ("LLA", 0, 1)]


B_PAST_THE_STACK = returned_to(1000)

FAULTS = [
    pytest.param([MAIN, ("LIT", None, 7), ("LIT", None, 0),
                  ("OPR", None, 5), RET], {}, (),
                 DIVISION_BY_ZERO, 3, id="division-by-zero"),
    pytest.param([MAIN, ("CAR", 0, 3), RET], {}, (),
                 BAD_STACK_ACCESS, 1, id="car-outside-the-frame"),
    pytest.param([MAIN, ("LIT", None, 1), ("ALM", 0, 3), RET], {},
                 (), BAD_STACK_ACCESS, 2, id="alm-outside-the-frame"),
    pytest.param([MAIN, ("CAR", 1, 3), RET], {}, (),
                 BAD_STACK_ACCESS, 1, id="chain-past-the-sentinel"),
    pytest.param([MAIN, ("LLA", 1, 3), RET, MAIN, RET], {}, (),
                 BAD_STACK_ACCESS, 1, id="call-past-the-sentinel"),
    pytest.param([MAIN, ("LIT", None, 1), ("LIT", None, 2),
                  ("LIT", None, 3), RET], {"stack_limit": 5}, (),
                 BAD_STACK_ACCESS, 3, id="push-hits-the-stack-limit"),
    pytest.param([MAIN, ("LLA", 0, 3), RET, MAIN, RET],
                 {"stack_limit": 5}, (),
                 BAD_STACK_ACCESS, 1, id="lla-hits-the-stack-limit"),
    pytest.param([MAIN, ("CAR", 0, 0), RET], {"stack_limit": 3}, (),
                 BAD_STACK_ACCESS, 1, id="car-hits-the-stack-limit"),
    pytest.param([("INS", None, 6), RET], {"stack_limit": 5}, (),
                 BAD_STACK_ACCESS, 0, id="ins-hits-the-stack-limit"),
    pytest.param([MAIN, ("LIT", None, -5), ("ALM", 0, 2), RET], {},
                 (), BAD_CODE_ADDRESS, -5, id="ret-to-a-negative-address"),
    pytest.param([MAIN, ("LIT", None, 99), ("ALM", 0, 2), RET], {},
                 (), BAD_CODE_ADDRESS, 99, id="ret-past-the-code"),
    # a procedure overwrites the return address LLA left in its frame
    pytest.param([("SAL", None, 5), MAIN, ("LIT", None, 8),
                  ("ALM", 0, 2), RET, MAIN, ("LLA", 0, 1), RET],
                 {}, (), BAD_CODE_ADDRESS, 8,
                 id="alm-overwrites-a-return-address"),
    pytest.param([MAIN], {}, (), BAD_CODE_ADDRESS, 1,
                 id="runs-off-the-end"),
    pytest.param([MAIN, ("SAL", None, 9), RET], {"loadable": False},
                 (), BAD_CODE_ADDRESS, 9, id="sal-past-the-code"),
    pytest.param([MAIN, ("SAL", None, -4), RET], {"loadable": False},
                 (), BAD_CODE_ADDRESS, -4, id="sal-to-a-negative-address"),
    pytest.param([MAIN, ("SAL", None, 3), RET], {"loadable": False},
                 (), BAD_CODE_ADDRESS, 3, id="sal-to-the-end"),
    pytest.param([MAIN, ("LIT", None, 0), ("SAC", None, 9), RET],
                 {"loadable": False}, (), BAD_CODE_ADDRESS, 9,
                 id="sac-past-the-code"),
    pytest.param([MAIN, ("LIT", None, 0), ("SAC", None, -4), RET],
                 {"loadable": False}, (), BAD_CODE_ADDRESS, -4,
                 id="sac-to-a-negative-address"),
    pytest.param([MAIN, ("LLA", 0, 9), RET], {"loadable": False}, (),
                 BAD_CODE_ADDRESS, 9, id="lla-past-the-code"),
    pytest.param([MAIN, ("LLA", 0, -4), RET], {"loadable": False}, (),
                 BAD_CODE_ADDRESS, -4, id="lla-to-a-negative-address"),
    pytest.param([MAIN, ("LIT", None, 1), ("ALM", 1, 3), RET], {},
                 (), BAD_STACK_ACCESS, 2, id="alm-chain-past-the-sentinel"),
    # a walk of any level stops at the first link that does not point down
    pytest.param([*SELF_LINKED, ("CAR", 10**11, 3), RET], {}, (),
                 BAD_STACK_ACCESS, 3, id="car-chain-links-to-itself"),
    pytest.param([*SELF_LINKED, ("ALM", 10**11, 3), RET], {}, (),
                 BAD_STACK_ACCESS, 3, id="alm-chain-links-to-itself"),
    pytest.param([*SELF_LINKED, ("LLA", 10**11, 5), RET, MAIN, RET], {},
                 (), BAD_STACK_ACCESS, 3, id="lla-chain-links-to-itself"),
    # the first link of a walk is checked too: b may be past the stack
    pytest.param([*B_PAST_THE_STACK, ("CAR", 1, 3), RET], {}, (),
                 BAD_STACK_ACCESS, 7, id="car-chain-from-past-the-stack"),
    pytest.param([*B_PAST_THE_STACK, ("LIT", None, 1),
                  ("ALM", 1, 3), RET], {}, (),
                 BAD_STACK_ACCESS, 8, id="alm-chain-from-past-the-stack"),
    pytest.param([*B_PAST_THE_STACK, ("LLA", 1, 5), RET], {}, (),
                 BAD_STACK_ACCESS, 7, id="lla-chain-from-past-the-stack"),
    # the frame's return-address cell would be the one after the last
    pytest.param([*returned_to(5), RET], {}, (), BAD_STACK_ACCESS, 7,
                 id="ret-from-a-frame-one-cell-short"),
    pytest.param([MAIN, ("LIT", None, 1), ("LIT", None, 2),
                  ("OPR", None, 7), RET], {"loadable": False}, (),
                 "Operación inválida: 7", 3, id="invalid-operation"),
    pytest.param([MAIN, ("LEE", None, None), RET], {}, (),
                 BAD_INPUT, 1, id="exhausted-input"),
    pytest.param([("ALM", 0, 0), RET], {}, (), BAD_STACK_ACCESS, 0,
                 id="alm-on-an-empty-stack"),
    pytest.param([("SAC", None, 1), RET], {}, (), BAD_STACK_ACCESS, 0,
                 id="sac-on-an-empty-stack"),
    pytest.param([("OPR", None, 6), RET], {}, (), BAD_STACK_ACCESS, 0,
                 id="odd-on-an-empty-stack"),
    pytest.param([MAIN, ("LEE", None, None), RET], {"stack_limit": 3},
                 (4,), BAD_STACK_ACCESS, 1, id="lee-hits-the-stack-limit"),
]


class TestFaults:
    """Each runtime fault, with its exact message and address, both
    through `run` and through `step`."""

    @pytest.mark.parametrize("specs,options,inputs,message,address", FAULTS)
    def test_run_reports_the_fault(self, specs, options, inputs, message,
                                   address):
        err = io.StringIO()
        assert run(machine(specs, **options), ListIo(inputs), err=err) == 1
        assert err.getvalue() == (f"Error en tiempo de ejecución: {message} "
                                  f"(dirección {address})\n")

    @pytest.mark.parametrize("specs,options,inputs,message,address", FAULTS)
    def test_step_raises_the_fault(self, specs, options, inputs, message,
                                   address):
        state = machine(specs, **options)
        state.stack[:3] = [-1, -1, 0]
        channel = ListIo(inputs)
        with pytest.raises(PvmRuntimeError) as info:
            for _ in range(2 * len(specs)):
                step(state, channel)
        assert (info.value.message, info.value.address) == (message, address)


# Programs that halt normally at the edge of a check: LLA's linkage
# reaching the stack limit's last cell, and a jump back to address 0 by
# each instruction that sets p.
HALTS = [
    pytest.param([MAIN, ("LLA", 0, 3), RET, MAIN, RET], {"stack_limit": 6},
                 (), id="lla-up-to-the-stack-limit"),
    pytest.param([MAIN, ("LEE", None, None), ("SAC", None, 4),
                  ("LLA", 0, 0), RET], {}, (1, 0), id="lla-to-address-0"),
    pytest.param([MAIN, ("LEE", None, None), ("SAC", None, 0), RET], {},
                 (0, 5), id="sac-to-address-0"),
    pytest.param([MAIN, ("LEE", None, None), ("SAC", None, 4),
                  ("SAL", None, 0), RET], {}, (1, 0), id="sal-to-address-0"),
    # a procedure overwrites its return address with 0
    pytest.param([MAIN, ("LEE", None, None), ("SAC", None, 4),
                  ("LLA", 0, 5), RET, MAIN, ("LIT", None, 0),
                  ("ALM", 0, 2), RET], {}, (1, 0), id="ret-to-address-0"),
]


@pytest.mark.parametrize("specs,options,inputs", HALTS)
def test_run_halts_at_the_edge_of_a_check(specs, options, inputs):
    channel, err = ListIo(inputs), io.StringIO()
    state = machine(specs, **options)
    assert run(state, channel, err=err) == 0
    assert (err.getvalue(), state.halted) == ("", True)
    with pytest.raises(InputError):  # every input was read
        channel.read_integer()


# x := 5 and a call at negative levels, then x written by main (CAR -3)
# and by the callee one static link up: each level below 0 acts as 0.
NEGATIVE_LEVELS = [
    ("INS", None, 4), ("LIT", None, 5), ("ALM", -1, 3),
    ("LLA", -2, 7), ("CAR", -3, 3), ("ESC", None, None), RET,
    MAIN, ("CAR", 1, 3), ("ESC", None, None), RET]


class TestNegativeLevels:
    def test_run(self):
        channel = ListIo()
        state = machine(NEGATIVE_LEVELS)
        assert run(state, channel, err=io.StringIO(), max_steps=100) == 0
        assert channel.outputs == [5, 5]

    def test_step(self):
        channel = ListIo()
        state = machine(NEGATIVE_LEVELS)
        state.stack[:3] = [-1, -1, 0]
        for _ in range(100):
            if state.halted:
                break
            step(state, channel)
        assert (state.halted, channel.outputs) == (True, [5, 5])


class TestStepLimit:
    LOOP = [MAIN, ("SAL", None, 1)]

    def test_run_stops_at_the_limit(self):
        err = io.StringIO()
        assert run(machine(self.LOOP), ListIo(), err=err, max_steps=10) == 1
        assert err.getvalue() == ("Error en tiempo de ejecución: "
                                  f"{STEP_LIMIT} (dirección 1)\n")

    def test_debug_mode_stops_at_the_limit(self):
        err = io.StringIO()
        assert run(machine(self.LOOP), ListIo(), debug=True,
                   control=io.StringIO(), err=err, max_steps=10) == 1
        lines = err.getvalue().splitlines()
        assert len(lines) == 11
        assert lines[-1] == ("Error en tiempo de ejecución: "
                             f"{STEP_LIMIT} (dirección 1)")

    @pytest.mark.parametrize("debug", [False, True])
    def test_a_halt_on_the_last_allowed_step_is_normal(self, debug):
        program = [MAIN, RET]
        options = {"debug": debug, "control": io.StringIO(),
                   "err": io.StringIO()}
        assert run(machine(program), ListIo(), max_steps=2, **options) == 0
        assert run(machine(program), ListIo(), max_steps=1, **options) == 1

    @pytest.mark.parametrize("debug", [False, True])
    def test_a_limit_past_the_word_size_is_no_limit(self, debug):
        options = {"debug": debug, "control": io.StringIO(),
                   "err": io.StringIO()}
        assert run(machine([MAIN, RET]), ListIo(), max_steps=1 << 64,
                   **options) == 0


class TestSourceLines:
    def test_runtime_error_names_the_source_line(self):
        artifacts = checks.compile_clean(
            "var x, y;\nbegin\n    read x;\n    y := 1;\n"
            "    y := y / x\nend.\n")
        division = next(instruction.address
                        for instruction in artifacts.program.instructions
                        if instruction.opcode == "OPR"
                        and instruction.param == 5)
        err = io.StringIO()
        state = load(program_to_xml(artifacts.program))
        assert run(state, ListIo([0]), err=err) == 1
        assert err.getvalue() == (
            f"Error en tiempo de ejecución: {DIVISION_BY_ZERO} "
            f"(dirección {division}, línea 5)\n")

    def test_the_nearest_annotation_before_gives_the_line(self):
        instructions = code(MAIN, ("LIT", None, 1),
                            ("LIT", None, 0), ("OPR", None, 5), RET)
        instructions[1].annotations.append(Annotation({"linea": "4"}))
        instructions[2].annotations.append(Annotation({"linea": "x"}))
        err = io.StringIO()
        assert run(MachineState(code=instructions), ListIo(), err=err) == 1
        assert err.getvalue().endswith("(dirección 3, línea 4)\n")

    def test_an_error_at_address_0_names_its_line(self):
        # Compiled code notes no line at address 0; a hand-edited one may.
        instructions = code(("ESC", None, None), RET)
        instructions[0].annotations.append(Annotation({"linea": "2"}))
        err = io.StringIO()
        assert run(load(program_to_xml(Program(instructions))), ListIo(),
                   err=err) == 1
        assert err.getvalue() == (f"Error en tiempo de ejecución: "
                                  f"{BAD_STACK_ACCESS} (dirección 0, "
                                  f"línea 2)\n")

    @pytest.mark.parametrize("written, shown", [
        ("٣", "4"), ("007", "7"), ("0", "0"),
        pytest.param("1" * 5000, "1" * 5000, id="5000-digits")])
    def test_a_line_is_ascii_digits_of_any_number(self, written, shown):
        # int() takes "٣" as 3 and refuses more than 4,300 digits; the
        # line is read as the ASCII digits it is written with.
        instructions = code(MAIN, ("LIT", None, 1),
                            ("LIT", None, 0), ("OPR", None, 5), RET)
        instructions[1].annotations.append(Annotation({"linea": "4"}))
        instructions[3].annotations.append(Annotation({"linea": written}))
        err = io.StringIO()
        assert run(MachineState(code=instructions), ListIo(), err=err) == 1
        assert err.getvalue().endswith(f"(dirección 3, línea {shown})\n")


@pytest.mark.parametrize("seed", range(1000, 1020))
def test_debug_mode_runs_like_run(seed):
    artifacts = checks.seeded(seed)
    document = program_to_xml(artifacts.program)
    plain, stepped = load(document), load(document)
    plain_io, stepped_io = ListIo(artifacts.inputs), ListIo(artifacts.inputs)
    plain_err, stepped_err = io.StringIO(), io.StringIO()
    assert run(plain, plain_io, err=plain_err) == \
        run(stepped, stepped_io, debug=True, control=io.StringIO(),
            err=stepped_err)
    assert stepped_io.outputs == plain_io.outputs
    assert len(stepped.stack) == len(plain.stack)
    assert stepped_err.getvalue().endswith(plain_err.getvalue())
