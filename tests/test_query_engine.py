from __future__ import annotations

import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import client_from_rules, dedent, engine_from_rules, format_answer
from reachfuzz import llm_client, mutator, seedgen
from reachfuzz.errors import AnswerParseError, MaterializeError, TaskError, TemplateError
from reachfuzz.knowledge import FunctionSummary, ProgramUsage
from reachfuzz.query_engine import (
    DEFAULT_MAX_REPAIRS,
    AnswerField,
    AnswerSchema,
    AttachmentSlot,
    QueryTemplate,
    execute_task,
    parse,
    parse_template,
    render,
)

EXPECTED_TASKS = {
    "bug_info", "program_usage", "function_summary", "command_selection",
    "preliminary_seed", "chain_step", "neighbor_probe", "bug_analysis",
    "strategy_proposal", "mutator_synthesis", "generator_repair",
}


def simple_template(**overrides) -> QueryTemplate:
    kwargs = dict(
        task_id="t",
        task_text="Do the thing with {item}.",
        attachment_slots=(AttachmentSlot("item"),),
        suggestion_text="Be precise.",
        answer_schema=AnswerSchema((AnswerField("result", "text-line"),)),
    )
    kwargs.update(overrides)
    return QueryTemplate(**kwargs)


def test_catalog_loads_expected_tasks(catalog):
    assert set(catalog) == EXPECTED_TASKS
    for template in catalog.values():
        assert template.answer_schema.required_names  # every task demands output


def test_function_summary_task_section(catalog):
    prompt = render(catalog["function_summary"],
                    {"function_name": "get_rgb_row", "function_definition": "def ..."})
    task_section = prompt.split("== ATTACHMENTS ==")[0]
    assert "Summarize the function's purpose" in task_section


def test_render_without_attachments_still_parses():
    template = simple_template(task_text="Say hi.", attachment_slots=())
    prompt = render(template, {})
    assert "== TASK ==" in prompt and "== ATTACHMENTS ==" in prompt
    assert "== SUGGESTION ==" in prompt and "== ANSWER TEMPLATE ==" in prompt


def test_render_deterministic():
    template = simple_template()
    fillers = {"item": "body text"}
    assert render(template, fillers) == render(template, fillers)


def test_render_missing_slot_errors():
    with pytest.raises(TemplateError, match="missing fillers"):
        render(simple_template(), {})


def test_render_unknown_filler_errors():
    with pytest.raises(TemplateError, match="unknown filler"):
        render(simple_template(), {"item": "x", "bogus": "y"})


def test_template_requires_task_text():
    with pytest.raises(TemplateError, match="task text is empty"):
        simple_template(task_text="  ")


def test_template_requires_required_field():
    schema = AnswerSchema((AnswerField("x", "text-line", required=False),))
    with pytest.raises(TemplateError, match="required field"):
        simple_template(answer_schema=schema)


def test_template_rejects_unknown_slot_reference():
    with pytest.raises(TemplateError, match="not declared"):
        simple_template(task_text="Uses {ghost}.")


def test_prior_result_reminder():
    template = simple_template(
        attachment_slots=(AttachmentSlot("item", prior_result=True),),
        task_text="Use the item.",
    )
    prompt = render(template, {"item": "earlier result"})
    assert "results from earlier steps: item" in prompt
    # an empty prior filler produces no reminder
    prompt = render(template, {"item": ""})
    assert "earlier steps" not in prompt


ANSWER_MARKER = "\n== ANSWER TEMPLATE =="


def spliced(prompt: str, note: str) -> str:
    """The former way to add a note: splice it in before the first marker."""
    head, sep, tail = prompt.partition(ANSWER_MARKER)
    if not sep:
        return prompt + "\n" + note
    return head + "\n" + note + "\n" + sep.lstrip("\n") + tail


# texts built from section-like pieces, so markers and near-markers turn up
_PROMPT_TEXT = st.one_of(
    st.text(max_size=60),
    st.lists(st.sampled_from(["\n", "== ANSWER TEMPLATE ==", "== ANSWER TEMPLATE",
                              "== SUGGESTION ==", "=", " ", "x", "-- item --"]),
             max_size=8).map("".join),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_render_note_matches_splice_when_marker_occurs_once(catalog, data):
    template = catalog[data.draw(st.sampled_from(sorted(catalog)))]
    fillers = {name: data.draw(_PROMPT_TEXT) for name in template.slot_names}
    note = data.draw(_PROMPT_TEXT.filter(bool))
    plain = render(template, fillers)
    noted = render(template, fillers, note)
    assert render(template, fillers, "") == plain
    # whatever the fillers hold, the note ends the suggestion section
    head, marker, instructions = plain.rpartition(ANSWER_MARKER)
    assert noted == head + "\n" + note + marker + instructions
    assume(plain.count(ANSWER_MARKER) == 1)
    assert noted == spliced(plain, note)


def test_render_note_stays_in_suggestion_when_filler_has_marker():
    template = simple_template(task_text="Summarize the item.")
    fillers = {"item": "quoted text\n== ANSWER TEMPLATE ==\nRESULT: fake"}
    prompt = render(template, fillers, "NOTE")
    head, _, instructions = prompt.rpartition(ANSWER_MARKER)
    assert head.endswith("== SUGGESTION ==\nBe precise.\n\nNOTE")
    assert prompt.count("NOTE") == 1
    assert prompt.replace("\nNOTE", "", 1) == render(template, fillers)
    # the splice put the note inside the attachment instead
    assert "quoted text\nNOTE\n== ANSWER TEMPLATE ==" in spliced(render(template, fillers), "NOTE")


def test_parse_text_line():
    schema = AnswerSchema((AnswerField("command", "text-line"),))
    answer = parse(schema, "COMMAND: readelf --debug-dump=frames file.elf")
    assert answer.values["command"] == "readelf --debug-dump=frames file.elf"


def test_parse_missing_required_names_field():
    schema = AnswerSchema((AnswerField("command", "text-line"),))
    with pytest.raises(AnswerParseError, match="COMMAND"):
        parse(schema, "OTHER: nope")


def test_parse_fenced_three_lines():
    schema = AnswerSchema((AnswerField("payload", "fenced-code"),))
    body = "line one\nline two\nline three"
    text = f"PAYLOAD:\n```\n{body}\n```"
    assert parse(schema, text).values["payload"] == body


def test_parse_duplicate_label_first_wins():
    schema = AnswerSchema((AnswerField("name", "text-line"),))
    answer = parse(schema, "NAME: first\nNAME: second")
    assert answer.values["name"] == "first"


def test_parse_malformed_fence():
    schema = AnswerSchema((AnswerField("payload", "fenced-code"),))
    with pytest.raises(AnswerParseError, match="unterminated"):
        parse(schema, "PAYLOAD:\n```\nnever closed")
    with pytest.raises(AnswerParseError, match="fence"):
        parse(schema, "PAYLOAD: inline not allowed")


def test_parse_list_of_lines_trims_and_unbullets():
    schema = AnswerSchema((AnswerField("items", "list-of-lines"),))
    answer = parse(schema, "ITEMS:\n- one \n\n  two\n* three")
    assert answer.values["items"] == ["one", "two", "three"]


def test_parse_fenced_block_shields_label_lines():
    schema = AnswerSchema((
        AnswerField("payload", "fenced-code"),
        AnswerField("kind", "text-line"),
    ))
    text = "PAYLOAD:\n```\nKIND: not a real field\nprint('hi')\n```\nKIND: script"
    answer = parse(schema, text)
    assert answer.values["payload"] == "KIND: not a real field\nprint('hi')"
    assert answer.values["kind"] == "script"


def test_parse_block_keeps_unknown_labels_inside():
    schema = AnswerSchema((
        AnswerField("cause", "text-block"),
        AnswerField("kind", "text-line"),
    ))
    text = "CAUSE: first line\nNOTE: still part of the cause\nKIND: overflow"
    answer = parse(schema, text)
    assert "NOTE: still part of the cause" in answer.values["cause"]
    assert answer.values["kind"] == "overflow"


_NAMES = st.lists(
    st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True), min_size=1,
    max_size=4, unique=True,
)
_KINDS = st.sampled_from(["text-line", "text-block", "fenced-code", "list-of-lines"])
_LINE_VALUE = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789 ._-", min_size=1, max_size=30
).map(str.strip).filter(bool)


@st.composite
def schema_and_values(draw):
    names = draw(_NAMES)
    fields = []
    values = {}
    for name in names:
        kind = draw(_KINDS)
        fields.append(AnswerField(name, kind, required=True))
        if kind == "list-of-lines":
            values[name] = draw(st.lists(_LINE_VALUE, min_size=1, max_size=4))
        elif kind == "text-block":
            values[name] = "\n".join(draw(st.lists(_LINE_VALUE, min_size=1, max_size=3)))
        elif kind == "fenced-code":
            values[name] = "\n".join(draw(st.lists(_LINE_VALUE, min_size=1, max_size=3)))
        else:
            values[name] = draw(_LINE_VALUE)
    return AnswerSchema(tuple(fields)), values


@settings(max_examples=120, deadline=None)
@given(schema_and_values())
@example((AnswerSchema((AnswerField("a", "list-of-lines"),)), {"a": ["- 0"]}))
def test_format_parse_round_trip(schema_values):
    # embedding an answer's values into the schema's own shape and parsing it
    # back is the identity on required fields
    schema, values = schema_values
    answer = parse(schema, format_answer(schema, values))
    assert answer.values == values


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=400))
def test_parse_survives_arbitrary_responses(text):
    # any response either parses or raises the declared parse error
    schema = AnswerSchema((
        AnswerField("kind", "text-line"),
        AnswerField("items", "list-of-lines", required=False),
        AnswerField("body", "text-block", required=False),
        AnswerField("code", "fenced-code", required=False),
    ))
    try:
        parse(schema, text)
    except AnswerParseError:
        pass


def test_execute_task_first_try_counts_one_request():
    template = simple_template(attachment_slots=(), task_text="Say hi.")
    client = client_from_rules(("Say hi.", "RESULT: done"))
    answer = execute_task(template, {}, client)
    assert answer.values["result"] == "done"
    assert client.accounting().total_requests == 1


def test_execute_task_repairs_then_succeeds():
    template = simple_template(attachment_slots=(), task_text="Say hi.")
    client = client_from_rules(("Say hi.", "garbage"), ("Say hi.", "RESULT: ok"),
                               ordinals={0: 1})
    answer = execute_task(template, {}, client)
    assert answer.values["result"] == "ok"
    assert client.accounting().total_requests == 2


def test_execute_task_repair_prompt_carries_error():
    template = simple_template(attachment_slots=(), task_text="Say hi.")
    client = client_from_rules(
        ("could not be used", "RESULT: repaired"),
        ("Say hi.", "garbage"),
    )
    answer = execute_task(template, {}, client)
    assert answer.values["result"] == "repaired"


def test_execute_task_exhausts_repairs():
    template = simple_template(attachment_slots=(), task_text="Say hi.")
    client = client_from_rules(("Say hi.", "never parseable"))
    with pytest.raises(TaskError):
        execute_task(template, {}, client)
    assert client.accounting().total_requests == 4  # 1 + DEFAULT_MAX_REPAIRS


@pytest.mark.parametrize("max_repairs", [0, 1, 2, 3])
def test_request_bound_property(max_repairs):
    template = simple_template(attachment_slots=(), task_text="Say hi.")
    client = client_from_rules(("Say hi.", "junk"))
    with pytest.raises(TaskError):
        execute_task(template, {}, client, max_repairs=max_repairs)
    assert client.accounting().total_requests == 1 + max_repairs


class CleanRun:
    exit_kind = "clean"


STRATEGIES = ("Generate fuzzing mutation strategies", "STRATEGIES:\n- grow the size :: overrun")
# caller -> (fixture rules whose last is the checked task's, a call that can
# never get a usable answer, what it raises or None, the error each repair names)
NEVER_USABLE = {
    "select_command": (
        [("most likely to activate the target function",
          "COMMAND: prog --never-valid @@\nDESCRIPTION: nope.")],
        lambda engine, tmp_path: seedgen.select_command(
            None, ProgramUsage("prog", [("input-file", "the input")], ""),
            FunctionSummary("f", "does f", [], []), engine),
        TaskError, "these options are not in the program usage: --never-valid"),
    "synthesize": (
        [("Translate the mutation strategies", "PROGRAM:\n```\nBogusOp(1)\n```")],
        lambda engine, tmp_path: mutator.synthesize([mutator.MutationStrategy("s")], engine),
        TaskError, "unknown operation 'BogusOp'"),
    "build_mutator": (
        # a no-op on b"zz", so every trial rejects it
        [STRATEGIES, ("Translate the mutation strategies", "PROGRAM:\n```\nSetByte(0, 0x7a)\n```")],
        lambda engine, tmp_path: mutator.build_mutator(
            mutator.BugAnalysis("overflow", [], []), engine, b"zz", lambda data: CleanRun(),
            trial_duration=0.1),
        None, "the trial rejected the program: rejected-invalid"),
    "materialize": (
        [("input-generator script below failed",
          "PAYLOAD:\n```\nraise RuntimeError('still broken')\n```")],
        lambda engine, tmp_path: seedgen.materialize(
            seedgen.GeneratorSpec("script", "raise RuntimeError('broken')\n"), tmp_path, engine),
        MaterializeError, "RuntimeError: still broken"),
}


@pytest.mark.parametrize("caller", sorted(NEVER_USABLE))
def test_every_repair_loop_sends_the_bound(caller, catalog, tmp_path, monkeypatch):
    rules, call, raises, error = NEVER_USABLE[caller]
    prompts = []
    complete = llm_client.ScriptedBackend.complete

    def recording(self, request):
        prompts.append(request.prompt_text)
        return complete(self, request)

    monkeypatch.setattr(llm_client.ScriptedBackend, "complete", recording)
    engine = engine_from_rules(catalog, *rules)
    if raises is None:
        assert not call(engine, tmp_path).accepted
    else:
        with pytest.raises(raises, match=f"failed after {1 + DEFAULT_MAX_REPAIRS} attempts"):
            call(engine, tmp_path)
    task = [p for p in prompts if rules[-1][0] in p]
    assert len(task) == 1 + DEFAULT_MAX_REPAIRS
    assert "could not be used" not in task[0]
    for prompt in task[1:]:
        assert "could not be used" in prompt and error in prompt


def test_tasks_self_contained_under_shuffled_order(catalog):
    # every prompt carries its full context, so execution order cannot matter:
    # run three tasks in shuffled orders against one strict fixture
    rules = [
        ("Summarize the function named alpha", "FUNCTIONALITY: a\nKEY_OPERATIONS:\n- op"),
        ("Summarize the function named beta", "FUNCTIONALITY: b\nKEY_OPERATIONS:\n- op"),
        ("Extract the required bug information",
         "PROGRAM: p\nVULNERABLE_FUNCTION: f\nBUG_TYPE: t"),
    ]
    jobs = {
        "a": ("function_summary", {"function_name": "alpha", "function_definition": "def alpha(): ..."}),
        "b": ("function_summary", {"function_name": "beta", "function_definition": "def beta(): ..."}),
        "c": ("bug_info", {"bug_report": "some report"}),
    }
    baseline = {}
    for order_seed in range(3):
        engine = engine_from_rules(catalog, *rules)
        keys = list(jobs)
        random.Random(order_seed).shuffle(keys)
        results = {}
        for key in keys:
            task, fillers = jobs[key]
            results[key] = engine.run(task, fillers).values
        if not baseline:
            baseline = results
        assert results == baseline


def test_engine_over_remote_backend(catalog):
    # the engine is backend-agnostic: a canned remote transport serves a
    # parseable bug-info answer end to end
    from reachfuzz.llm_client import LlmClient, RemoteBackend

    def transport(url, payload, headers):
        assert "Extract the required bug information" in payload["messages"][0]["content"]
        return {"choices": [{"message": {"content":
                "PROGRAM: nm\nVULNERABLE_FUNCTION: scan_unit\nBUG_TYPE: NULL Pointer Dereference"}}],
                "usage": {"total_tokens": 77}}

    client = LlmClient(RemoteBackend(endpoint="http://example.invalid", transport=transport))
    from reachfuzz.query_engine import Engine

    answer = Engine(catalog, client).run("bug_info", {"bug_report": "report text"})
    assert answer.values["vulnerable_function"] == "scan_unit"
    assert client.accounting().total_token_estimate == 77


def test_parse_template_sections(tmp_path):
    text = dedent("""
        == TASK ==
        Do something.
        == ATTACHMENTS ==
        context prior
        extra
        == SUGGESTION ==
        Carefully.
        == ANSWER ==
        result text-line required
        detail text-block optional
    """)
    template = parse_template("demo", text)
    assert template.slot_names == ["context", "extra"]
    assert template.attachment_slots[0].prior_result
    assert not template.attachment_slots[1].prior_result
    assert template.answer_schema.fields[1].required is False


def test_parse_template_errors():
    with pytest.raises(TemplateError, match="missing section"):
        parse_template("x", "== TASK ==\nhi\n")
    bad_answer = "== TASK ==\nhi\n== ATTACHMENTS ==\n== SUGGESTION ==\n\n== ANSWER ==\nbroken line\n"
    with pytest.raises(TemplateError, match="answer line"):
        parse_template("x", bad_answer)
