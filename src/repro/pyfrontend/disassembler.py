"""Lowering of CPython bytecode into Queryll three-address code.

The lowering performs abstract interpretation of the operand stack (the same
job Soot's Jimple conversion does for Java bytecode, see
:mod:`repro.jvm.stack_to_tac` for the mini-JVM equivalent): each CPython
instruction either pushes a symbolic expression, pops operands to build a
bigger expression, or emits a three-address instruction.

For-loops are normalised into the Java iterator shape the analysis expects::

    GET_ITER            ->  $itN = <collection>.iterator()
    FOR_ITER <exit>     ->  $hasN = $itN.hasNext()
                            if ($hasN == 0) goto <exit>
                            $elemN = $itN.next()

Only the bytecode subset produced by straightforward query functions is
supported; anything else raises :class:`UnsupportedQueryError`, and the
``@query`` decorator falls back to executing the original function (which is
always semantically correct, as the paper requires).
"""

from __future__ import annotations

import dis
import sys
from dataclasses import dataclass
from types import FunctionType
from typing import Optional

from repro.core.expr import nodes
from repro.core.tac.instructions import (
    Assign,
    ExprStatement,
    Goto,
    IfGoto,
    Return,
)
from repro.core.tac.method import TacMethod
from repro.errors import UnsupportedQueryError

_SUPPORTED_CONSTANT_TYPES = (int, float, str, bool, type(None))

_BINARY_OP_NAMES = {
    "+": "+",
    "-": "-",
    "*": "*",
    "/": "/",
    "%": "%",
    "//": "/",
    "+=": "+",
    "-=": "-",
    "*=": "*",
    "/=": "/",
    "%=": "%",
}

_COMPARISON_NAMES = {"==", "!=", "<", "<=", ">", ">="}


@dataclass
class _MethodRef:
    """Marker for a bound method pushed by LOAD_METHOD."""

    receiver: nodes.Expression
    name: str


class _NullMarker:
    """Marker for the NULL pushed by PUSH_NULL."""


class PythonBytecodeLowering:
    """Lowers one Python function's bytecode to a :class:`TacMethod`."""

    def __init__(self, function: FunctionType) -> None:
        self._function = function
        self._code = function.__code__
        self._instructions: list = []  # TAC instructions
        self._stack: list[object] = []
        self._tac_index_at_offset: dict[int, int] = {}
        self._pending_stacks: dict[int, list[object]] = {}
        self._temp_counter = 0

    # -- public API ------------------------------------------------------------------

    def lower(self) -> TacMethod:
        """Lower the function to three-address code."""
        code = self._code
        parameters = list(code.co_varnames[: code.co_argcount + code.co_kwonlyargcount])
        bytecode = list(dis.get_instructions(self._function))
        previous_falls_through = True
        for instruction in bytecode:
            offset = instruction.offset
            self._tac_index_at_offset[offset] = len(self._instructions)
            if instruction.is_jump_target and not previous_falls_through:
                if offset in self._pending_stacks:
                    self._stack = list(self._pending_stacks[offset])
                else:
                    self._stack = []
            previous_falls_through = self._lower_instruction(instruction)

        method = TacMethod(
            name=self._function.__name__,
            parameters=parameters,
            instructions=self._instructions,
            source_name=f"{self._function.__module__}.{self._function.__qualname__}",
        )
        self._resolve_jump_targets(method)
        method.validate()
        return method

    # -- instruction dispatch ------------------------------------------------------------

    def _lower_instruction(self, instruction: dis.Instruction) -> bool:
        """Lower one bytecode instruction.  Returns whether control can fall
        through to the next instruction."""
        name = instruction.opname
        handler = getattr(self, f"_op_{name.lower()}", None)
        if handler is None:
            raise UnsupportedQueryError(
                f"unsupported Python bytecode instruction {name} "
                f"in {self._function.__qualname__}"
            )
        result = handler(instruction)
        return True if result is None else bool(result)

    # -- stack helpers ----------------------------------------------------------------------

    def _push(self, value: object) -> None:
        self._stack.append(value)

    def _pop(self) -> object:
        if not self._stack:
            raise UnsupportedQueryError("operand stack underflow during lowering")
        return self._stack.pop()

    def _pop_expression(self) -> nodes.Expression:
        value = self._pop()
        if isinstance(value, (_MethodRef, _NullMarker)):
            raise UnsupportedQueryError("unexpected method/null marker on the stack")
        return value  # type: ignore[return-value]

    def _new_temp(self, prefix: str) -> str:
        self._temp_counter += 1
        return f"${prefix}{self._temp_counter}"

    def _emit(self, instruction) -> None:
        self._instructions.append(instruction)

    def _remember_branch_stack(self, target_offset: int) -> None:
        existing = self._pending_stacks.get(target_offset)
        if existing is None:
            self._pending_stacks[target_offset] = list(self._stack)
        elif len(existing) != len(self._stack):
            raise UnsupportedQueryError(
                "inconsistent stack depth at a branch target during lowering"
            )

    def _resolve_jump_targets(self, method: TacMethod) -> None:
        end = len(method.instructions)
        for instruction in method.instructions:
            if isinstance(instruction, (Goto, IfGoto)):
                offset = instruction.target
                if offset in self._tac_index_at_offset:
                    instruction.target = self._tac_index_at_offset[offset]
                else:
                    instruction.target = end

    # -- no-ops -----------------------------------------------------------------------------------

    def _op_resume(self, instruction: dis.Instruction) -> None:
        return None

    def _op_nop(self, instruction: dis.Instruction) -> None:
        return None

    def _op_cache(self, instruction: dis.Instruction) -> None:
        return None

    def _op_precall(self, instruction: dis.Instruction) -> None:
        return None

    def _op_push_null(self, instruction: dis.Instruction) -> None:
        self._push(_NullMarker())

    def _op_copy_free_vars(self, instruction: dis.Instruction) -> None:
        return None

    def _op_make_cell(self, instruction: dis.Instruction) -> None:
        return None

    # -- loads and stores ----------------------------------------------------------------------------

    def _op_load_const(self, instruction: dis.Instruction) -> None:
        value = instruction.argval
        if not isinstance(value, _SUPPORTED_CONSTANT_TYPES):
            raise UnsupportedQueryError(
                f"unsupported constant {value!r} in a query function"
            )
        self._push(nodes.Constant(value))

    def _op_load_fast(self, instruction: dis.Instruction) -> None:
        self._push(nodes.Var(str(instruction.argval)))

    # 3.13 variants
    _op_load_fast_borrow = _op_load_fast
    _op_load_fast_check = _op_load_fast

    def _op_load_global(self, instruction: dis.Instruction) -> None:
        self._push(nodes.Var(str(instruction.argval)))

    def _op_load_deref(self, instruction: dis.Instruction) -> None:
        self._push(nodes.Var(str(instruction.argval)))

    def _op_store_fast(self, instruction: dis.Instruction) -> None:
        value = self._pop_expression()
        self._emit(Assign(str(instruction.argval), value))

    def _op_load_attr(self, instruction: dis.Instruction) -> None:
        receiver = self._pop_expression()
        name = str(instruction.argval)
        if sys.version_info >= (3, 12) and instruction.arg is not None and instruction.arg & 1:
            # In 3.12+ LOAD_ATTR with the low bit set replaces LOAD_METHOD.
            self._push(_MethodRef(receiver, name))
            return
        self._push(nodes.GetField(receiver, name))

    def _op_load_method(self, instruction: dis.Instruction) -> None:
        receiver = self._pop_expression()
        self._push(_MethodRef(receiver, str(instruction.argval)))

    def _op_pop_top(self, instruction: dis.Instruction) -> None:
        value = self._pop()
        if isinstance(value, (nodes.Call, nodes.New)):
            self._emit(ExprStatement(value))

    def _op_swap(self, instruction: dis.Instruction) -> None:
        depth = instruction.arg or 2
        if len(self._stack) < depth:
            raise UnsupportedQueryError("SWAP beyond stack depth")
        self._stack[-1], self._stack[-depth] = self._stack[-depth], self._stack[-1]

    def _op_copy(self, instruction: dis.Instruction) -> None:
        depth = instruction.arg or 1
        if len(self._stack) < depth:
            raise UnsupportedQueryError("COPY beyond stack depth")
        self._push(self._stack[-depth])

    # -- operators ---------------------------------------------------------------------------------------

    def _op_compare_op(self, instruction: dis.Instruction) -> None:
        op = str(instruction.argval)
        # Python 3.13 renders comparisons as e.g. "bool(<)"; normalise.
        if op.startswith("bool(") and op.endswith(")"):
            op = op[len("bool(") : -1]
        if op not in _COMPARISON_NAMES:
            raise UnsupportedQueryError(f"unsupported comparison {op!r}")
        right = self._pop_expression()
        left = self._pop_expression()
        self._push(nodes.BinOp(op, left, right))

    def _op_binary_op(self, instruction: dis.Instruction) -> None:
        op_text = instruction.argrepr or str(instruction.argval)
        if op_text not in _BINARY_OP_NAMES:
            raise UnsupportedQueryError(f"unsupported binary operator {op_text!r}")
        right = self._pop_expression()
        left = self._pop_expression()
        self._push(nodes.BinOp(_BINARY_OP_NAMES[op_text], left, right))

    def _op_unary_not(self, instruction: dis.Instruction) -> None:
        self._push(nodes.UnaryOp("!", self._pop_expression()))

    def _op_unary_negative(self, instruction: dis.Instruction) -> None:
        self._push(nodes.UnaryOp("neg", self._pop_expression()))

    def _op_build_tuple(self, instruction: dis.Instruction) -> None:
        count = instruction.arg or 0
        args = [self._pop_expression() for _ in range(count)]
        args.reverse()
        self._push(nodes.New("tuple", tuple(args)))

    # -- calls ----------------------------------------------------------------------------------------------

    def _op_call(self, instruction: dis.Instruction) -> None:
        argc = instruction.arg or 0
        args = [self._pop_expression() for _ in range(argc)]
        args.reverse()
        callee = self._pop()
        expression = self._make_call(callee, tuple(args))
        if self._stack and isinstance(self._stack[-1], _NullMarker):
            self._stack.pop()
        self._push(expression)

    # 3.12+ emits CALL_KW / CALL_FUNCTION_EX for keyword calls: unsupported.

    def _op_kw_names(self, instruction: dis.Instruction) -> None:
        raise UnsupportedQueryError("keyword arguments are not supported in queries")

    def _make_call(
        self, callee: object, args: tuple[nodes.Expression, ...]
    ) -> nodes.Expression:
        if isinstance(callee, _MethodRef):
            return nodes.Call(callee.receiver, callee.name, args)
        if isinstance(callee, nodes.GetField):
            return nodes.Call(callee.receiver, callee.field, args)
        if isinstance(callee, nodes.Var):
            name = callee.name
            if name and name[0].isupper():
                # Calling a capitalised global constructs an object
                # (QuerySet(), Pair(a, b), ...).
                return nodes.New(name, args)
            return nodes.Call(None, name, args)
        raise UnsupportedQueryError(f"cannot lower call to {callee!r}")

    # -- iteration -----------------------------------------------------------------------------------------------

    def _op_get_iter(self, instruction: dis.Instruction) -> None:
        collection = self._pop_expression()
        iterator_temp = self._new_temp("it")
        self._emit(Assign(iterator_temp, nodes.Call(collection, "iterator")))
        self._push(nodes.Var(iterator_temp))

    def _op_for_iter(self, instruction: dis.Instruction) -> None:
        iterator = self._stack[-1]
        if not isinstance(iterator, nodes.Var):
            raise UnsupportedQueryError("FOR_ITER over a non-materialised iterator")
        exit_offset = int(instruction.argval)
        has_next_temp = self._new_temp("has")
        self._emit(Assign(has_next_temp, nodes.Call(iterator, "hasNext")))
        self._remember_branch_stack(exit_offset)
        self._emit(
            IfGoto(
                nodes.BinOp("==", nodes.Var(has_next_temp), nodes.Constant(0)),
                exit_offset,
            )
        )
        element_temp = self._new_temp("elem")
        self._emit(Assign(element_temp, nodes.Call(iterator, "next")))
        self._push(nodes.Var(element_temp))

    def _op_end_for(self, instruction: dis.Instruction) -> None:
        # Python 3.12+ closes for-loops with END_FOR (pops the iterator).
        if self._stack:
            self._stack.pop()

    # -- control flow -----------------------------------------------------------------------------------------------

    def _branch_if(self, instruction: dis.Instruction, jump_when_true: bool) -> None:
        condition = self._pop_expression()
        target = int(instruction.argval)
        if not jump_when_true:
            condition = nodes.BinOp("==", condition, nodes.Constant(False))
        self._remember_branch_stack(target)
        self._emit(IfGoto(condition, target))

    def _op_pop_jump_forward_if_false(self, instruction: dis.Instruction) -> None:
        self._branch_if(instruction, jump_when_true=False)

    def _op_pop_jump_backward_if_false(self, instruction: dis.Instruction) -> None:
        self._branch_if(instruction, jump_when_true=False)

    def _op_pop_jump_if_false(self, instruction: dis.Instruction) -> None:
        self._branch_if(instruction, jump_when_true=False)

    def _op_pop_jump_forward_if_true(self, instruction: dis.Instruction) -> None:
        self._branch_if(instruction, jump_when_true=True)

    def _op_pop_jump_backward_if_true(self, instruction: dis.Instruction) -> None:
        self._branch_if(instruction, jump_when_true=True)

    def _op_pop_jump_if_true(self, instruction: dis.Instruction) -> None:
        self._branch_if(instruction, jump_when_true=True)

    def _op_pop_jump_forward_if_none(self, instruction: dis.Instruction) -> None:
        raise UnsupportedQueryError("None tests are not supported in queries")

    _op_pop_jump_forward_if_not_none = _op_pop_jump_forward_if_none
    _op_pop_jump_if_none = _op_pop_jump_forward_if_none
    _op_pop_jump_if_not_none = _op_pop_jump_forward_if_none

    def _goto(self, instruction: dis.Instruction) -> bool:
        target = int(instruction.argval)
        self._remember_branch_stack(target)
        self._emit(Goto(target))
        return False

    def _op_jump_forward(self, instruction: dis.Instruction) -> bool:
        return self._goto(instruction)

    def _op_jump_backward(self, instruction: dis.Instruction) -> bool:
        return self._goto(instruction)

    def _op_jump_backward_no_interrupt(self, instruction: dis.Instruction) -> bool:
        return self._goto(instruction)

    def _op_jump_absolute(self, instruction: dis.Instruction) -> bool:
        return self._goto(instruction)

    def _op_return_value(self, instruction: dis.Instruction) -> bool:
        value = self._pop_expression()
        self._emit(Return(value))
        return False

    def _op_return_const(self, instruction: dis.Instruction) -> bool:
        value = instruction.argval
        if not isinstance(value, _SUPPORTED_CONSTANT_TYPES):
            raise UnsupportedQueryError(f"unsupported constant return {value!r}")
        self._emit(Return(nodes.Constant(value)))
        return False


def lower_function(function: FunctionType) -> TacMethod:
    """Lower ``function``'s bytecode into three-address code."""
    return PythonBytecodeLowering(function).lower()


def try_lower_function(function: FunctionType) -> Optional[TacMethod]:
    """Like :func:`lower_function` but returns None on unsupported bytecode."""
    try:
        return lower_function(function)
    except UnsupportedQueryError:
        return None
