"""Per-layer tracing of coopverify from outside the package.

The tracer replaces each traced function at every module binding of the
``coopverify`` package that holds it (``from .x import f`` copies included),
so calls from one layer into another pass through a wrapper.  A wrapper
opens a span on entry and closes it on exit; the span's self time is its
duration minus the time its child spans cover.  Spans of the current round
are aggregated as they close (calls, self time, inclusive time per name);
the spans themselves are kept for the first traced round and written out
when the run ends.

Some wrappers only count (the very hot ``EdgePattern.matches``), and a few
derive exact work counters from arguments and results: the product visitor
passed to ``run_product``, the assignments ``is_tautology_bounded`` tried,
the steps ``exec_test`` executed and the steps a pipeline ran.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

# (span name, defining module, attribute).  Every binding of the function in
# a coopverify module is wrapped, the defining module's own one included, so
# that calls inside a layer (e.g. engine.check_fulfills -> run_product) are
# seen too.
SPANS = (
    ("lang.parse_program", "coopverify.lang", "parse_program"),
    ("lang.parse_cfa", "coopverify.lang", "parse_cfa"),
    ("lang.successors", "coopverify.lang", "successors"),
    ("lang.enumerate_paths", "coopverify.lang", "enumerate_paths"),
    ("automata.parse_automaton", "coopverify.automata", "parse_automaton"),
    ("automata.serialize_automaton", "coopverify.automata", "serialize_automaton"),
    ("automata.step_frontier", "coopverify.automata", "step_frontier"),
    ("automata.match_path", "coopverify.automata", "match_path"),
    ("kinds.validate_kind", "coopverify.kinds", "validate_kind"),
    ("engine.run_product", "coopverify.engine", "run_product"),
    ("engine.check_fulfills", "coopverify.engine", "check_fulfills"),
    ("engine.check_correctness_witness", "coopverify.engine", "check_correctness_witness"),
    ("engine.check_violation_witness", "coopverify.engine", "check_violation_witness"),
    ("engine.check_condition_correct", "coopverify.engine", "check_condition_correct"),
    ("engine.check_test_covers", "coopverify.engine", "check_test_covers"),
    ("actors.verify", "coopverify.actors", "verify"),
    ("actors.validate_result", "coopverify.actors", "validate_result"),
    ("actors.reduce", "coopverify.actors", "reduce"),
    ("actors.reduce_with_origin", "coopverify.actors", "reduce_with_origin"),
    ("actors.conditional_verify", "coopverify.actors", "conditional_verify"),
    ("actors.extract_test", "coopverify.actors", "extract_test"),
    ("actors.exec_test", "coopverify.actors", "exec_test"),
    ("actors.generate_tests", "coopverify.actors", "generate_tests"),
    ("actors.correctness_witness_from_observations", "coopverify.actors",
     "correctness_witness_from_observations"),
    ("actors.violation_witness_from_path", "coopverify.actors", "violation_witness_from_path"),
    ("pipeline.check_recipe", "coopverify.pipeline", "check_recipe"),
    ("pipeline.run_pipeline", "coopverify.pipeline", "run_pipeline"),
    ("cli.main", "coopverify.cli", "main"),
)

# Recursive evaluators: only the bindings other layers call through are
# wrapped, so a span is one evaluation requested by another layer, not one
# node of the expression tree.
FOREIGN_SPANS = (
    ("predicates.evaluate", "coopverify.predicates", "evaluate"),
    ("predicates.eval_expr", "coopverify.predicates", "eval_expr"),
)

# Methods, wrapped on their class.
METHOD_SPANS = (
    ("lang.path_extend", "coopverify.lang", "ConcretePath", "extended"),
)

SELF_VALIDATION_CHILDREN = ("engine.check_correctness_witness", "engine.check_violation_witness")


class Tracer:
    """Spans and counters for one traced run.

    ``task`` is the index of the task the next spans belong to (0 is set-up);
    the runner sets it, and clears ``active`` while the benchmark checks
    outputs, so that the checks' own calls into coopverify are not traced.
    ``reset_round`` clears the aggregates between rounds.
    """

    def __init__(self) -> None:
        self.names: list = []
        self._ids: dict = {}
        self._undo: list = []
        self._stack: list = []  # open spans: [child_time, name_id, span_index]
        self.task = 0
        self.active = True
        self.recording = True
        # per name id, this round: calls, self seconds, inclusive seconds
        self.calls: list = []
        self.self_s: list = []
        self.incl_s: list = []
        self.counters: dict = {}
        self.self_validation_s = 0.0
        self.distinct_configs = 0
        # recorded spans (set-up and first round): name id, parent index,
        # task, start, end
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_task = array("i")
        self.span_start = array("d")
        self.span_end = array("d")

    # -- aggregates -------------------------------------------------------

    def reset_round(self) -> None:
        # in place: the wrappers hold these lists
        for i in range(len(self.names)):
            self.calls[i] = 0
            self.self_s[i] = 0.0
            self.incl_s[i] = 0.0
        self.counters.clear()
        self.self_validation_s = 0.0
        self.distinct_configs = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.incl_s.append(0.0)
        return self._ids[name]

    def count(self, name: str, amount: int = 1) -> None:
        if self.active:
            self.counters[name] = self.counters.get(name, 0) + amount

    def stats(self, name: str) -> tuple:
        """(calls, self seconds, inclusive seconds) of one span name this round."""
        i = self._ids.get(name)
        if i is None:
            return 0, 0.0, 0.0
        return self.calls[i], self.self_s[i], self.incl_s[i]

    # -- spans ------------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(args, kwargs, result)`` may count."""
        nid = self._id(name)
        verify_id = self._id("actors.verify")
        validation_child = name in SELF_VALIDATION_CHILDREN
        stack, calls, self_s, incl_s = self._stack, self.calls, self.self_s, self.incl_s
        clock = perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = -1
            if self.recording:
                index = len(self.span_name)
                self.span_name.append(nid)
                self.span_parent.append(stack[-1][2] if stack else -1)
                self.span_task.append(self.task)
                self.span_start.append(0.0)
                self.span_end.append(0.0)
            frame = [0.0, nid, index]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[nid] += 1
                incl_s[nid] += duration
                self_s[nid] += duration - frame[0]
                if stack:
                    parent = stack[-1]
                    parent[0] += duration
                    if validation_child and parent[1] == verify_id:
                        self.self_validation_s += duration
                if index >= 0:
                    self.span_start[index] = start
                    self.span_end[index] = end
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counting(self, name: str, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            if self.active:
                counters[name] = counters.get(name, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------

    def _rebind(self, original, wrapper, skip_module=None) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "coopverify" or mod_name.startswith("coopverify.")):
                continue
            if mod_name == skip_module:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def install(self) -> None:
        """Wrap every traced function of the loaded coopverify modules."""
        for name, mod_name, attr in SPANS:
            module = sys.modules.get(mod_name)
            if module is None:
                continue  # e.g. coopverify.cli when a workload never loads it
            original = getattr(module, attr)
            self._rebind(original, self._span(name, original, self._after(name)))
        for name, mod_name, attr in FOREIGN_SPANS:
            original = getattr(sys.modules[mod_name], attr)
            self._rebind(original, self._span(name, original), skip_module=mod_name)
        for name, mod_name, cls_name, attr in METHOD_SPANS:
            cls = getattr(sys.modules[mod_name], cls_name)
            original = vars(cls)[attr]
            setattr(cls, attr, self._span(name, original))
            self._undo.append((cls, attr, original))
        automata = sys.modules["coopverify.automata"]
        original = vars(automata.EdgePattern)["matches"]
        setattr(automata.EdgePattern, "matches",
                self._counting("automata.pattern_match_calls", original))
        self._undo.append((automata.EdgePattern, "matches", original))
        predicates = sys.modules["coopverify.predicates"]
        original = predicates.is_tautology_bounded
        self._rebind(original, self._tautology_wrapper(original), skip_module="coopverify.predicates")
        engine = sys.modules["coopverify.engine"]
        self._wrap_run_product_visitor(engine)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- work counters ----------------------------------------------------

    def _after(self, name: str):
        if name == "actors.exec_test":
            def after(args, kwargs, report):
                self.count("actors.exec_steps", report.trace.length)
            return after
        if name == "pipeline.run_pipeline":
            def after(args, kwargs, result):
                self.count("pipeline.steps", len(result.log))
            return after
        return None

    def _tautology_wrapper(self, original):
        """Count the assignments ``is_tautology_bounded`` evaluates.

        The count follows the function's documented order: every total
        assignment of the sorted variables, values smallest magnitude first,
        up to and including the first counterexample; none for the syntactic
        complementary-pair proof.
        """
        def wrapper(pred, variables, domain):
            result = original(pred, variables, domain)
            if not self.active or result.syntactic or result.status == "inconclusive":
                return result
            self.count("kinds.enumerated_cells")
            names = sorted(set(variables))
            order = sorted(range(domain.lo, domain.hi + 1), key=lambda v: (abs(v), v))
            width = len(order)
            if result.status == "tautology":
                tried = width ** len(names)
            else:
                position = {v: i for i, v in enumerate(order)}
                index = 0
                for name in names:
                    index = index * width + position[result.counterexample[name]]
                tried = index + 1
            self.count("predicates.tautology_assignments", tried)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _wrap_run_product_visitor(self, engine) -> None:
        """Count what ``run_product`` explores through the visitor it drives:
        configurations visited, maximum depth, truncated and pruned prefixes,
        and distinct (location, data state, frontiers, final entries) keys."""
        traced = engine.run_product  # already the span wrapper
        prune = engine.VisitAction.PRUNE

        def run_product(program, automata, config, visit):
            if not self.active:
                return traced(program, automata, config, visit)
            seen: set = set()
            counts = [0, 0, 0, 0]  # visited, max depth, truncated, pruned

            def counting_visit(v):
                counts[0] += 1
                if v.path.length > counts[1]:
                    counts[1] = v.path.length
                if v.truncated:
                    counts[2] += 1
                seen.add((v.path.final_location, v.path.final_state, v.frontiers, v.final_entries))
                action = visit(v)
                if action is prune:
                    counts[3] += 1
                return action

            try:
                return traced(program, automata, config, counting_visit)
            finally:
                self.count("engine.explorations")
                self.count("engine.configs_visited", counts[0])
                self.counters["engine.max_depth"] = max(
                    self.counters.get("engine.max_depth", 0), counts[1])
                self.count("engine.truncated_prefixes", counts[2])
                self.count("engine.pruned_prefixes", counts[3])
                self.distinct_configs += len(seen)

        run_product.__wrapped__ = traced
        self._rebind(traced, run_product)

    # -- output -----------------------------------------------------------

    def write_spans(self, path, task_names: list) -> int:
        """Write the recorded spans as tab-separated lines; returns the count."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("index\tname\tparent\ttask\tstart_s\tend_s\tself_s\n")
            n = len(self.span_name)
            child = [0.0] * n
            for i in range(n):
                p = self.span_parent[i]
                if p >= 0:
                    child[p] += self.span_end[i] - self.span_start[i]
            origin = self.span_start[0] if n else 0.0
            for i in range(n):
                start, end = self.span_start[i], self.span_end[i]
                out.write(f"{i}\t{self.names[self.span_name[i]]}\t{self.span_parent[i]}\t"
                          f"{task_names[self.span_task[i]]}\t{start - origin:.9f}\t"
                          f"{end - origin:.9f}\t{end - start - child[i]:.9f}\n")
        return len(self.span_name)
