"""Task/Attachment/Suggestion/AnswerTemplate query scheme.

Each pipeline task is described by a template with four labeled sections.
Rendering produces one self-contained prompt; parsing extracts the labeled
fields the answer template demanded. Parse failures trigger a bounded repair
loop that re-queries with the error appended as an extra suggestion.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .errors import AnswerParseError, TaskError, TemplateError
from .llm_client import LlmClient, LlmRequest, TEMPERATURE_EXTRACTION

FIELD_KINDS = ("text-line", "text-block", "fenced-code", "list-of-lines")

DEFAULT_MAX_REPAIRS = 3


@dataclass(frozen=True)
class AnswerField:
    name: str
    kind: str
    required: bool = True

    def __post_init__(self):
        if self.kind not in FIELD_KINDS:
            raise TemplateError(f"unknown answer field kind {self.kind!r}")

    @property
    def label(self) -> str:
        return self.name.upper()


@dataclass(frozen=True)
class AnswerSchema:
    fields: tuple[AnswerField, ...]

    def __post_init__(self):
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise TemplateError("answer schema field names must be unique")

    def field(self, name: str) -> AnswerField:
        for f in self.fields:
            if f.name == name:
                return f
        raise KeyError(name)

    @property
    def required_names(self) -> list[str]:
        return [f.name for f in self.fields if f.required]


@dataclass(frozen=True)
class AttachmentSlot:
    name: str
    prior_result: bool = False


@dataclass(frozen=True)
class QueryTemplate:
    task_id: str
    task_text: str
    attachment_slots: tuple[AttachmentSlot, ...]
    suggestion_text: str
    answer_schema: AnswerSchema

    def __post_init__(self):
        if not self.task_text.strip():
            raise TemplateError(f"{self.task_id}: task text is empty")
        if not self.answer_schema.required_names:
            raise TemplateError(f"{self.task_id}: answer schema needs a required field")
        slot_names = {s.name for s in self.attachment_slots}
        for ref in _slot_refs(self.task_text) | _slot_refs(self.suggestion_text):
            if ref not in slot_names:
                raise TemplateError(
                    f"{self.task_id}: referenced slot {ref!r} is not declared"
                )

    @property
    def slot_names(self) -> list[str]:
        return [s.name for s in self.attachment_slots]


@dataclass
class StructuredAnswer:
    values: dict[str, str | list[str]]
    raw: str
    warnings: list[str] = field(default_factory=list)

    def text(self, name: str) -> str:
        value = self.values[name]
        if isinstance(value, list):
            return "\n".join(value)
        return value

    def lines(self, name: str) -> list[str]:
        value = self.values.get(name, [])
        if isinstance(value, str):
            return [value] if value else []
        return value


_SLOT_REF = re.compile(r"\{([a-z][a-z0-9_]*)\}")


def _slot_refs(text: str) -> set[str]:
    return set(_SLOT_REF.findall(text))


def render(template: QueryTemplate, fillers: dict[str, str]) -> str:
    """Render the four sections into one deterministic prompt.

    Every declared attachment slot must have a filler. Slots marked as prior
    results get a reminder line appended to the suggestion so the model knows
    earlier answers are present in the attachments rather than in history.
    """
    missing = [s for s in template.slot_names if s not in fillers]
    if missing:
        raise TemplateError(f"{template.task_id}: missing fillers for {missing}")
    extra = [name for name in fillers if name not in template.slot_names]
    if extra:
        raise TemplateError(f"{template.task_id}: unknown filler slots {extra}")
    if not template.task_text.strip():
        raise TemplateError(f"{template.task_id}: task text is empty")

    def substitute(text: str) -> str:
        return _SLOT_REF.sub(lambda m: fillers[m.group(1)], text)

    parts = ["== TASK ==", substitute(template.task_text).strip(), ""]
    parts.append("== ATTACHMENTS ==")
    if template.attachment_slots:
        for slot in template.attachment_slots:
            parts.append(f"-- {slot.name} --")
            parts.append(fillers[slot.name].rstrip("\n"))
    parts.append("")
    suggestion = substitute(template.suggestion_text).strip()
    prior = [s.name for s in template.attachment_slots
             if s.prior_result and fillers[s.name].strip()]
    if prior:
        reminder = ("Reminder: the attachments above include results from "
                    "earlier steps: " + ", ".join(prior) + ".")
        suggestion = (suggestion + "\n" + reminder).strip()
    parts += ["== SUGGESTION ==", suggestion, ""]
    parts += ["== ANSWER TEMPLATE ==", answer_instructions(template.answer_schema)]
    return "\n".join(parts)


def answer_instructions(schema: AnswerSchema) -> str:
    """Describe the expected answer shape as literal labeled lines."""
    out = ["Reply using exactly these labeled fields:"]
    for f in schema.fields:
        opt = "" if f.required else " (optional)"
        if f.kind == "text-line":
            out.append(f"{f.label}: <single line>{opt}")
        elif f.kind == "text-block":
            out.append(f"{f.label}: <free text, may span lines>{opt}")
        elif f.kind == "list-of-lines":
            out.append(f"{f.label}:{opt}")
            out.append("<one item per line>")
        else:
            out.append(f"{f.label}:{opt}")
            out.append("```")
            out.append("<verbatim content>")
            out.append("```")
    return "\n".join(out)


_FENCE = re.compile(r"^(`{3,})\s*\w*\s*$")


def parse(schema: AnswerSchema, response_text: str) -> StructuredAnswer:
    """Extract schema fields from labeled lines and fenced blocks.

    Only labels belonging to the schema terminate a block or list, so prose
    containing unrelated ALL-CAPS words survives intact. The first occurrence
    of a duplicated label wins and a warning is recorded.
    """
    labels = {f.label: f for f in schema.fields}
    label_re = re.compile(
        r"^(" + "|".join(re.escape(lbl) for lbl in sorted(labels, key=len, reverse=True))
        + r"):\s?(.*)$"
    )
    lines = response_text.split("\n")
    values: dict[str, str | list[str]] = {}
    warnings: list[str] = []

    # label lines inside fenced blocks belong to the block, not the schema
    hits: list[tuple[int, AnswerField, str]] = []
    in_fence: str | None = None
    for i, line in enumerate(lines):
        stripped = line.strip()
        fence = _FENCE.match(stripped)
        if fence:
            if in_fence is None:
                in_fence = fence.group(1)
            elif stripped == in_fence:
                in_fence = None
            continue
        if in_fence is not None:
            continue
        m = label_re.match(stripped)
        if m:
            hits.append((i, labels[m.group(1)], m.group(2)))
            opener = _FENCE.match(m.group(2).strip())
            if opener:
                in_fence = opener.group(1)

    boundary = {i for i, _, _ in hits}
    for pos, (i, fld, rest) in enumerate(hits):
        if fld.name in values:
            warnings.append(f"duplicate field {fld.label}; first occurrence kept")
            continue
        end = hits[pos + 1][0] if pos + 1 < len(hits) else len(lines)
        if fld.kind == "text-line":
            values[fld.name] = rest.strip()
        elif fld.kind == "text-block":
            block = [rest] + lines[i + 1:end]
            values[fld.name] = "\n".join(block).strip()
        elif fld.kind == "list-of-lines":
            items: list[str] = []
            if rest.strip():
                items.append(rest.strip())
            for line in lines[i + 1:end]:
                item = line.strip()
                if not item:
                    continue
                if item.startswith("- ") or item.startswith("* "):
                    item = item[2:].strip()
                if item:
                    items.append(item)
            values[fld.name] = items
        else:
            values[fld.name] = _parse_fenced(lines, i, end, rest, fld, boundary)

    missing = [f.label for f in schema.fields
               if f.required and _is_empty(values.get(f.name))]
    if missing:
        raise AnswerParseError(
            "missing required field(s): " + ", ".join(missing)
        )
    return StructuredAnswer(values=values, raw=response_text, warnings=warnings)


def _parse_fenced(lines: list[str], start: int, end: int, rest: str,
                  fld: AnswerField, boundary: set[int]) -> str:
    if rest.strip() and not _FENCE.match(rest.strip()):
        raise AnswerParseError(
            f"field {fld.label} expects a fenced block, got inline text"
        )
    i = start + 1
    fence = rest.strip() or None
    if fence is None:
        while i < end and not lines[i].strip():
            i += 1
        if i >= end or not _FENCE.match(lines[i].strip()):
            raise AnswerParseError(f"field {fld.label}: opening fence not found")
        fence = _FENCE.match(lines[i].strip()).group(1)
        i += 1
    else:
        fence = _FENCE.match(fence).group(1)
    body: list[str] = []
    while i < len(lines) and lines[i].strip() != fence:
        if i in boundary:
            raise AnswerParseError(f"field {fld.label}: fenced block is unterminated")
        body.append(lines[i])
        i += 1
    if i >= len(lines):
        raise AnswerParseError(f"field {fld.label}: fenced block is unterminated")
    return "\n".join(body)


def _is_empty(value) -> bool:
    if value is None:
        return True
    if isinstance(value, list):
        return len(value) == 0
    return not value.strip()


def execute_task(template: QueryTemplate, fillers: dict[str, str], client: LlmClient,
                 max_repairs: int = DEFAULT_MAX_REPAIRS, stage: str = "other",
                 temperature: float = TEMPERATURE_EXTRACTION,
                 extra_suggestion: str = "") -> StructuredAnswer:
    """Render, complete, and parse; repair on parse failure.

    Each repair re-renders the same self-contained prompt with the parse
    error appended as one more suggestion, so the request count per task is
    bounded by 1 + max_repairs.
    """
    raw_responses: list[str] = []
    error_note = ""
    for _ in range(1 + max_repairs):
        suggestion_parts = [p for p in (extra_suggestion, error_note) if p]
        prompt = render(template, fillers)
        if suggestion_parts:
            prompt = _augment_suggestion(prompt, "\n".join(suggestion_parts))
        response = client.complete(
            LlmRequest(prompt_text=prompt, temperature_hint=temperature), stage=stage
        )
        raw_responses.append(response.text)
        try:
            return parse(template.answer_schema, response.text)
        except AnswerParseError as exc:
            error_note = (
                "Your previous reply could not be used: "
                f"{exc}. Follow the answer template exactly."
            )
    raise TaskError(
        f"task {template.task_id} failed after {1 + max_repairs} attempts",
        raw_responses=raw_responses,
    )


def _augment_suggestion(prompt: str, note: str) -> str:
    marker = "\n== ANSWER TEMPLATE =="
    head, sep, tail = prompt.partition(marker)
    if not sep:
        return prompt + "\n" + note
    return head + "\n" + note + "\n" + sep.lstrip("\n") + tail


class Engine:
    """Template catalog plus client, the object the pipeline stages share."""

    def __init__(self, catalog: dict[str, QueryTemplate], client: LlmClient,
                 max_repairs: int = DEFAULT_MAX_REPAIRS):
        self.catalog = catalog
        self.client = client
        self.max_repairs = max_repairs

    def run(self, task_id: str, fillers: dict[str, str], stage: str,
            temperature: float = TEMPERATURE_EXTRACTION,
            extra_suggestion: str = "") -> StructuredAnswer:
        template = self.catalog.get(task_id)
        if template is None:
            raise TemplateError(f"no template for task {task_id!r}")
        return execute_task(template, fillers, self.client,
                            max_repairs=self.max_repairs, stage=stage,
                            temperature=temperature,
                            extra_suggestion=extra_suggestion)


_SECTIONS = ("TASK", "ATTACHMENTS", "SUGGESTION", "ANSWER")
_SECTION_LINE = re.compile(r"^==\s*(TASK|ATTACHMENTS|SUGGESTION|ANSWER)\s*==$")


def parse_template(task_id: str, text: str) -> QueryTemplate:
    """Parse one template file (sections delimited by ``== NAME ==`` lines)."""
    sections: dict[str, list[str]] = {}
    current: list[str] | None = None
    for lineno, line in enumerate(text.split("\n"), start=1):
        m = _SECTION_LINE.match(line.strip())
        if m:
            name = m.group(1)
            if name in sections:
                raise TemplateError(f"{task_id}:{lineno}: duplicate section {name}")
            current = sections.setdefault(name, [])
            continue
        if current is None:
            if line.strip() and not line.lstrip().startswith("#"):
                raise TemplateError(f"{task_id}:{lineno}: text before first section")
            continue
        current.append(line)
    for name in _SECTIONS:
        if name not in sections:
            raise TemplateError(f"{task_id}: missing section {name}")

    slots: list[AttachmentSlot] = []
    for line in sections["ATTACHMENTS"]:
        item = line.strip()
        if not item or item.startswith("#"):
            continue
        parts = item.split()
        prior = len(parts) > 1 and parts[1] == "prior"
        slots.append(AttachmentSlot(parts[0], prior_result=prior))

    fields: list[AnswerField] = []
    for line in sections["ANSWER"]:
        item = line.strip()
        if not item or item.startswith("#"):
            continue
        parts = item.split()
        if len(parts) != 3 or parts[2] not in ("required", "optional"):
            raise TemplateError(
                f"{task_id}: answer line must be '<name> <kind> required|optional', got {item!r}"
            )
        fields.append(AnswerField(parts[0], parts[1], required=parts[2] == "required"))

    return QueryTemplate(
        task_id=task_id,
        task_text="\n".join(sections["TASK"]).strip(),
        attachment_slots=tuple(slots),
        suggestion_text="\n".join(sections["SUGGESTION"]).strip(),
        answer_schema=AnswerSchema(tuple(fields)),
    )


def load_catalog(directory: str | Path | None = None) -> dict[str, QueryTemplate]:
    """Load every ``*.tmpl`` file; defaults to the catalog shipped in-package."""
    catalog: dict[str, QueryTemplate] = {}
    if directory is None:
        root = resources.files("reachfuzz") / "templates"
        entries = sorted(
            (e for e in root.iterdir() if e.name.endswith(".tmpl")),
            key=lambda e: e.name,
        )
        for entry in entries:
            task_id = entry.name[: -len(".tmpl")]
            catalog[task_id] = parse_template(task_id, entry.read_text(encoding="utf-8"))
        return catalog
    for path in sorted(Path(directory).glob("*.tmpl")):
        catalog[path.stem] = parse_template(path.stem, path.read_text(encoding="utf-8"))
    return catalog
