"""Corpus persistence: JSON round-trips for generated corpora.

Generated corpora are cheap to regenerate, but persisting them makes
experiment artefacts shareable and lets downstream users load real data
dumped into the same schema from their own sources.
"""

from __future__ import annotations

import json
import os

from repro.data.corpus import Corpus
from repro.data.schema import Author, Paper, Venue
from repro.errors import DataError, InjectedFault
from repro.resilience import faults
from repro.resilience.durable import write_json_atomic
from repro.resilience.retry import Backoff, retry


def paper_to_dict(paper: Paper) -> dict:
    """Plain-dict representation of one paper (novelty ground truth is a
    generator artefact and is deliberately not persisted)."""
    return {
        "id": paper.id, "title": paper.title, "abstract": paper.abstract,
        "year": paper.year, "month": paper.month, "field": paper.field,
        "category_path": list(paper.category_path),
        "keywords": list(paper.keywords),
        "references": list(paper.references),
        "authors": list(paper.authors),
        "venue": paper.venue,
        "citation_count": paper.citation_count,
        "sentence_labels": list(paper.sentence_labels),
    }


def paper_from_dict(entry: dict) -> Paper:
    """Inverse of :func:`paper_to_dict`."""
    return Paper(
        id=entry["id"], title=entry["title"], abstract=entry["abstract"],
        year=entry["year"], month=entry.get("month"), field=entry["field"],
        category_path=tuple(entry.get("category_path", ())),
        keywords=tuple(entry.get("keywords", ())),
        references=tuple(entry.get("references", ())),
        authors=tuple(entry.get("authors", ())),
        venue=entry.get("venue"),
        citation_count=entry.get("citation_count", 0),
        sentence_labels=tuple(entry.get("sentence_labels", ())),
    )


def corpus_to_dict(corpus: Corpus) -> dict:
    """Plain-dict representation of a corpus (taxonomy is not included —
    it is a generator artefact; category paths live on the papers)."""
    return {
        "name": corpus.name,
        "papers": [paper_to_dict(p) for p in corpus.papers],
        "authors": [
            {"id": a.id, "name": a.name, "affiliation": a.affiliation}
            for a in corpus.authors
        ],
        "venues": [
            {"id": v.id, "name": v.name, "field": v.field}
            for v in corpus.venues
        ],
    }


def corpus_from_dict(payload: dict, strict: bool = True) -> Corpus:
    """Inverse of :func:`corpus_to_dict`.

    Raises
    ------
    DataError
        When the payload is missing a required key (naming the key and,
        for per-record failures, the offending entry) instead of leaking
        a raw ``KeyError``/``TypeError`` from deep inside the schema.
    """
    try:
        name = payload["name"]
        entries = payload["papers"]
    except KeyError as exc:
        raise DataError(
            f"corpus payload missing required key {exc.args[0]!r}") from exc
    papers = []
    for i, entry in enumerate(entries):
        try:
            papers.append(paper_from_dict(entry))
        except KeyError as exc:
            raise DataError(
                f"paper entry #{i} (id={entry.get('id', '<missing>')!r}) "
                f"missing required key {exc.args[0]!r}") from exc
    try:
        authors = [Author(**entry) for entry in payload.get("authors", [])]
        venues = [Venue(**entry) for entry in payload.get("venues", [])]
    except TypeError as exc:
        raise DataError(f"malformed author/venue entry: {exc}") from exc
    return Corpus(name, papers, authors=authors, venues=venues,
                  strict=strict)


def save_corpus(corpus: Corpus, path: str | os.PathLike) -> None:
    """Write *corpus* to a JSON file, atomically (a crash mid-dump never
    leaves a truncated file; see
    :func:`~repro.resilience.durable.write_json_atomic`)."""
    write_json_atomic(path, corpus_to_dict(corpus))


@retry(attempts=3, backoff=Backoff(base=0.01), retry_on=(InjectedFault,),
       name="data.load_corpus")
def _read_corpus_payload(path: str) -> dict:
    faults.maybe_fail("data.load_corpus")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def load_corpus(path: str | os.PathLike, strict: bool = True) -> Corpus:
    """Read a corpus previously written by :func:`save_corpus` (or dumped
    into the same schema from external data).

    Raises
    ------
    DataError
        When the file is not valid JSON or the payload violates the
        corpus schema; the message names *path* and the offending key.
    """
    path = os.fspath(path)
    try:
        payload = _read_corpus_payload(path)
    except json.JSONDecodeError as exc:
        raise DataError(f"corrupt corpus JSON at {path}: {exc}") from exc
    try:
        return corpus_from_dict(payload, strict=strict)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
