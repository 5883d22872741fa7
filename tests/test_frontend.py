"""Unit tests for the kernel frontend (Python subset -> IR)."""

import pytest

from repro.frontend import KernelCompileError, compile_kernel, compile_kernels
from repro.ir import F64, I64, Opcode, print_function, verify_function
from repro.vm import Memory

from oracles.interpreter import Interpreter


def run_kernel(function, objects, scalars):
    """Compile-free helper: execute an already compiled kernel."""
    module = function.metadata["module"]
    memory = Memory()
    args = {}
    for name, (etype, values) in objects.items():
        args[name] = memory.allocate(name, etype, len(values), initial=values)
    args.update(scalars)
    result = Interpreter(module, memory).run(function.name, args)
    return memory, result.return_value


# --------------------------------------------------------------------- #
# kernels under test (must be module-level for source extraction)
# --------------------------------------------------------------------- #
def k_sum(a: "double*", n: "i64") -> "double":
    s = 0.0
    for i in range(n):
        s = s + a[i]
    return s


def k_while_count(limit: "i64") -> "i64":
    i = 0
    total = 0
    while i < limit:
        total = total + i
        i = i + 1
    return total


def k_branches(x: "i64") -> "i64":
    if x > 10:
        return 2
    elif x > 0:
        return 1
    else:
        return 0


def k_augassign(a: "double*", n: "i64") -> "void":
    for i in range(n):
        a[i] += 2.0
        a[i] *= 3.0


def k_step_loop(a: "double*", n: "i64") -> "double":
    s = 0.0
    for i in range(0, n, 2):
        s = s + a[i]
    for i in range(n - 1, -1, -1):
        s = s + 1.0
    return s

def k_boolops(x: "i64", y: "i64") -> "i64":
    if x > 0 and y > 0:
        return 1
    if x < 0 or y < 0:
        return -1
    return 0


def k_intrinsics(x: "double") -> "double":
    return sqrt(fabs(x)) + exp(0.0) + fmax(x, 0.0)  # noqa: F821


def k_conversions(x: "double", i: "i64") -> "double":
    j = int(x)
    f = float(i)
    return f + j


def k_conditional_expr(x: "double") -> "double":
    return x if x > 0.0 else -x


def k_bitops(x: "i64", y: "i64") -> "i64":
    return ((x & y) | (x ^ 3)) + (x << 2) + (x >> 1) + (~y)


def k_break_continue(a: "double*", n: "i64") -> "double":
    s = 0.0
    for i in range(n):
        if a[i] < 0.0:
            continue
        if a[i] > 100.0:
            break
        s = s + a[i]
    return s


def k_pow_mod(x: "double", m: "i64") -> "double":
    return x**2 + (m % 3) + (m // 2)


def k_callee(x: "double") -> "double":
    return x * 2.0


def k_caller(a: "double*", n: "i64") -> "double":
    s = 0.0
    for i in range(n):
        s = s + k_callee(a[i])
    return s


MODULE_CONSTANT = 7


def k_uses_global(x: "i64") -> "i64":
    return x + MODULE_CONSTANT


class TestCompilation:
    def test_sum_compiles_and_runs(self):
        f = compile_kernel(k_sum)
        assert verify_function(f, f.metadata["module"]) == []
        _, value = run_kernel(f, {"a": (F64, [1.0, 2.0, 3.5])}, {"n": 3})
        assert value == pytest.approx(6.5)

    def test_while_loop(self):
        f = compile_kernel(k_while_count)
        _, value = run_kernel(f, {}, {"limit": 5})
        assert value == 0 + 1 + 2 + 3 + 4

    @pytest.mark.parametrize("x,expected", [(20, 2), (5, 1), (-3, 0), (0, 0)])
    def test_if_elif_else(self, x, expected):
        f = compile_kernel(k_branches)
        _, value = run_kernel(f, {}, {"x": x})
        assert value == expected

    def test_augmented_assignment(self):
        f = compile_kernel(k_augassign)
        memory, _ = run_kernel(f, {"a": (F64, [1.0, 2.0])}, {"n": 2})
        assert list(memory.object("a").values()) == [9.0, 12.0]

    def test_strided_and_descending_range(self):
        f = compile_kernel(k_step_loop)
        _, value = run_kernel(f, {"a": (F64, [1.0, 9.0, 2.0, 9.0])}, {"n": 4})
        # strided picks a[0], a[2]; descending loop adds 1.0 four times
        assert value == pytest.approx(1.0 + 2.0 + 4.0)

    @pytest.mark.parametrize("x,y,expected", [(1, 1, 1), (-1, 5, -1), (0, 0, 0), (3, -2, -1)])
    def test_boolean_operators(self, x, y, expected):
        f = compile_kernel(k_boolops)
        _, value = run_kernel(f, {}, {"x": x, "y": y})
        assert value == expected

    def test_intrinsic_calls(self):
        f = compile_kernel(k_intrinsics)
        _, value = run_kernel(f, {}, {"x": -4.0})
        assert value == pytest.approx(2.0 + 1.0 + 0.0)

    def test_int_float_conversions(self):
        f = compile_kernel(k_conversions)
        _, value = run_kernel(f, {}, {"x": 3.9, "i": 2})
        assert value == pytest.approx(2.0 + 3)

    @pytest.mark.parametrize("x,expected", [(2.5, 2.5), (-2.5, 2.5)])
    def test_conditional_expression(self, x, expected):
        f = compile_kernel(k_conditional_expr)
        _, value = run_kernel(f, {}, {"x": x})
        assert value == pytest.approx(expected)

    def test_bit_operations(self):
        f = compile_kernel(k_bitops)
        _, value = run_kernel(f, {}, {"x": 12, "y": 10})
        expected = ((12 & 10) | (12 ^ 3)) + (12 << 2) + (12 >> 1) + (~10)
        assert value == expected

    def test_break_and_continue(self):
        f = compile_kernel(k_break_continue)
        _, value = run_kernel(
            f, {"a": (F64, [1.0, -5.0, 2.0, 200.0, 3.0])}, {"n": 5}
        )
        assert value == pytest.approx(3.0)

    def test_pow_mod_floordiv(self):
        f = compile_kernel(k_pow_mod)
        _, value = run_kernel(f, {}, {"x": 3.0, "m": 7})
        assert value == pytest.approx(9.0 + 1 + 3)

    def test_cross_kernel_calls(self):
        module = compile_kernels([k_callee, k_caller])
        memory = Memory()
        a = memory.allocate("a", F64, 3, initial=[1.0, 2.0, 3.0])
        result = Interpreter(module, memory).run("k_caller", {"a": a, "n": 3})
        assert result.return_value == pytest.approx(12.0)

    def test_module_level_constant(self):
        f = compile_kernel(k_uses_global)
        _, value = run_kernel(f, {}, {"x": 5})
        assert value == 12

    def test_source_line_metadata(self):
        f = compile_kernel(k_sum)
        lines = [i.source_line for i in f.instructions() if i.source_line is not None]
        assert lines, "instructions should carry source line info"

    def test_printer_roundtrip_smoke(self):
        f = compile_kernel(k_branches)
        text = print_function(f)
        assert "icmp" in text and "br i1" in text

    def test_o0_style_locals(self):
        f = compile_kernel(k_sum)
        opcodes = [i.opcode for i in f.instructions()]
        assert Opcode.ALLOCA in opcodes
        assert Opcode.PHI not in opcodes


# --------------------------------------------------------------------- #
# diagnostics
# --------------------------------------------------------------------- #
def k_missing_annotation(a, n: "i64") -> "void":
    pass


def k_bad_type(a: "quadword") -> "void":
    pass


def k_undefined_var(n: "i64") -> "i64":
    return nope  # noqa: F821


def k_unsupported_statement(n: "i64") -> "void":
    assert n > 0


def k_bad_iteration(a: "double*", n: "i64") -> "void":
    for x in a:
        pass


def k_reassign_param(n: "i64") -> "i64":
    n = n + 1
    return n


def k_unknown_call(n: "i64") -> "i64":
    return mystery(n)  # noqa: F821


def k_missing_return(n: "i64") -> "i64":
    if n > 0:
        return 1


class TestDiagnostics:
    @pytest.mark.parametrize(
        "kernel,needle",
        [
            (k_missing_annotation, "annotation"),
            (k_bad_type, "unknown IR type"),
            (k_undefined_var, "undefined variable"),
            (k_unsupported_statement, "unsupported statement"),
            (k_bad_iteration, "range"),
            (k_reassign_param, "reassign parameter"),
            (k_unknown_call, "unknown function"),
            (k_missing_return, "falls off the end"),
        ],
    )
    def test_rejects_with_message(self, kernel, needle):
        with pytest.raises(KernelCompileError) as excinfo:
            compile_kernel(kernel)
        assert needle in str(excinfo.value)

    def test_error_carries_kernel_name(self):
        with pytest.raises(KernelCompileError) as excinfo:
            compile_kernel(k_undefined_var)
        assert "k_undefined_var" in str(excinfo.value)
