"""Seeded inputs for the benchmark workloads.

``build(workload, seed)`` returns every input file of one workload run as
bytes, plus what the output checks need to know about them.  The same
workload and seed always give byte-identical files, and nothing here
imports the program under test: it receives only the written files.

Each workload directory holds

* ``pages/``   HTML pages for ``arfuture ingest``;
* ``corpus/``  corpus files for ``arfuture analyze``;
* ``gold.tsv`` gold (document, sentence, class) triples for ``arfuture eval``.

The sentence generator and its word lists are a copy of the template
generator in ``tests/oracle.py``, kept here so that editing the tests
cannot silently change a workload.  At seed 88, ``news-dense`` is exactly
the 200-document corpus of acceptance criterion 8.
"""

from __future__ import annotations

import hashlib
import html
import random
from dataclasses import dataclass, field

#: workload name -> why it is in the benchmark
WORKLOADS = {
    "news-dense": "200 docs x 25 sentences, 30% markers: rule matching, morphology "
    "gates and tokenizing dominate analyze",
    "ingest-html": "400 chrome-heavy pages with dupes, boilerplate and windows-1256: "
    "HTML extraction dominates ingest",
}

MARKER_PARTS = [
    "قد", "وقد", "فقد", "سوف", "وسوف", "فسوف", "لن", "ولن", "فلن",
    "من المتوقع", "ومن المرجح", "من الممكن", "متوقعا", "مستبعد", "محتمل",
    "توقع", "توقعت", "وتوقع", "فاستبعدت", "ارتقب",
    "يتوقع", "نرجح", "اتوقع", "ويستبعد",
    "سيرتفع", "ستنخفض", "وسيجري", "فستنطلق", "سنتر", "ستتضمن",
    "سيمون", "سويسرا", "سيشيل", "سافر", "سوق", "سنة", "سنويا", "سندات",
    "سَوْفَ", "قَدْ", "لَنْ", "مـتوقع", "مُسْتَبْعَداً",
]
DISTRACTOR_PARTS = [
    "الاقتصاد", "لبنان", "الدين", "العام", "المصرف", "المركزي", "كتاب",
    "طاولة", "الوزارة", "النمو", "درس", "قدم", "لان", "بعد", "قبل",
    "اليوم", "تقرير", "جديد", "المالية", "الضغوط", "يمتلك", "استخدامه",
]
PUNCT_PARTS = ["،", '"', "(", ")", ":", "؛", "%"]
DIGIT_PARTS = ["20", "1.5", "2017", "743"]

#: the class a human annotator means by planting each marker; the siin-like
#: names and nouns mean none.  Gold built from this intent disagrees with the
#: rules where they over- or under-trigger, so precision and recall are not
#: trivially 100.
_INTENDED_CLASS = {
    "qad": ["قد", "وقد", "فقد", "قَدْ"],
    "sawfa": ["سوف", "وسوف", "فسوف", "سَوْفَ"],
    "lan": ["لن", "ولن", "فلن", "لَنْ"],
    "participle": ["من المتوقع", "ومن المرجح", "من الممكن", "متوقعا", "مستبعد",
                   "محتمل", "مـتوقع", "مُسْتَبْعَداً"],
    "past_verb": ["توقع", "توقعت", "وتوقع", "فاستبعدت", "ارتقب"],
    "present_verb": ["يتوقع", "نرجح", "اتوقع", "ويستبعد"],
    "sin": ["سيرتفع", "ستنخفض", "وسيجري", "فستنطلق", "سنتر", "ستتضمن"],
}
INTENDED_CLASS = {part: label for label, parts in _INTENDED_CLASS.items() for part in parts}

HARAKAT = frozenset("ًٌٍَُِّْ")
#: share of articles whose pages keep the generator's diacritized spellings
#: in the benchmark's own tests.  The timed workloads serve every page
#: without harakat, as most news sites serve them: ``extract_main_article``
#: ends a text run at every haraka (``_is_run_char`` in
#: ``src/arfuture/corpus.py``), so such pages lose text, and a workload must
#: be one on which no operation fails.  ``perfbench/tests/test_checks.py``
#: keeps that defect in view with a strict xfail over pages built with this
#: share.
DIACRITIZED_SHARE = 0.1


def strip_harakat(text: str) -> str:
    return "".join(ch for ch in text if ch not in HARAKAT)


def generate_parts(rng: random.Random) -> list[str]:
    """One template sentence as its parts; ``" ".join`` gives the sentence.

    Draws from ``rng`` exactly as ``tests/oracle.py`` ``generate_sentence``.
    """
    parts = []
    for _ in range(rng.randint(6, 16)):
        roll = rng.random()
        if roll < 0.30:
            parts.append(rng.choice(MARKER_PARTS))
        elif roll < 0.82:
            parts.append(rng.choice(DISTRACTOR_PARTS))
        elif roll < 0.92:
            parts.append(rng.choice(PUNCT_PARTS))
        else:
            parts.append(rng.choice(DIGIT_PARTS))
    return parts


@dataclass(frozen=True)
class Article:
    """One corpus document: paragraphs of sentences, each sentence its parts."""

    url: str
    title: str
    paragraphs: tuple[tuple[tuple[str, ...], ...], ...]

    @property
    def doc_id(self) -> str:
        return doc_id_for_url(self.url)

    def sentences(self) -> list[tuple[str, ...]]:
        return [s for para in self.paragraphs for s in para]

    def sentence_texts(self) -> list[str]:
        """Sentence texts in document order, as segmentation must find them."""
        return [" ".join(s) + "." for s in self.sentences()]

    def paragraph_texts(self) -> list[str]:
        return [" ".join(" ".join(s) + "." for s in para) for para in self.paragraphs]

    @property
    def body(self) -> str:
        return "\n".join(self.paragraph_texts())


@dataclass
class Inputs:
    """Every file of one workload run, and the facts the checks compare to."""

    workload: str
    seed: int
    files: dict[str, bytes] = field(default_factory=dict)
    #: corpus/ documents
    articles: list[Article] = field(default_factory=list)
    #: file name -> content of every corpus file ``ingest`` must write
    expected_ingest: dict[str, str] = field(default_factory=dict)
    #: page path -> name of the corpus file it must become, None if dropped
    page_outcomes: dict[str, str | None] = field(default_factory=dict)
    #: pages whose article keeps its harakat
    diacritized: set[str] = field(default_factory=set)
    pages: int = 0
    boilerplate: int = 0
    duplicates: int = 0
    gold: set[tuple[str, int, str]] = field(default_factory=set)

    @property
    def html_bytes(self) -> int:
        return sum(len(b) for name, b in self.files.items() if name.startswith("pages/"))

    @property
    def corpus_body_bytes(self) -> int:
        return sum(len(a.body.encode("utf-8")) for a in self.articles)

    def write(self, root) -> None:
        for name, data in sorted(self.files.items()):
            path = root / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)


# ---------------------------------------------------------------------------
# file formats the program reads and writes, restated independently


def doc_id_for_url(url: str) -> str:
    return hashlib.sha256(url.encode("utf-8")).hexdigest()[:12]


def corpus_file_text(url: str, title: str, body: str) -> str:
    # generated bodies never hold a line starting with "URL: ", so no escaping
    return f"URL: {url}\nTITLE: {title}\n\n{body}\n"


# ---------------------------------------------------------------------------
# workloads


def build(workload: str, seed: int, diacritized_share: float = 0.0) -> Inputs:
    """``diacritized_share`` of the articles keep their harakat on their pages."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    inputs = Inputs(workload=workload, seed=seed)
    heavy = workload == "ingest-html"
    if heavy:
        articles, pages = _ingest_html(seed)
    else:
        articles = _news_dense(seed)
        pages = [(a, "utf-8", False) for a in articles]
    inputs.articles = articles
    for article in articles:
        inputs.files[f"corpus/{article.doc_id}.corpus.txt"] = corpus_file_text(
            article.url, article.title, article.body
        ).encode("utf-8")
    _add_gold(inputs)
    _add_pages(inputs, pages, heavy, random.Random(f"pages:{workload}:{seed}"),
               diacritized_share)
    return inputs


def _sentence_stream(seed: int, count: int) -> list[tuple[str, ...]]:
    rng = random.Random(seed)
    return [tuple(generate_parts(rng)) for _ in range(count)]


def _news_dense(seed: int) -> list[Article]:
    sentences = _sentence_stream(seed, 200 * 25)
    return [
        Article(url=f"http://bench/{i}", title=f"doc {i}",
                paragraphs=(tuple(sentences[i * 25:(i + 1) * 25]),))
        for i in range(200)
    ]


def _page_text(sentences) -> str:
    """Sentences as a page without harakat shows them, each ending in a period."""
    return strip_harakat(" ".join(" ".join(s) + "." for s in sentences))


def _paragraphs(sentences, rng: random.Random, low: int, high: int):
    """Group sentences into paragraphs of ``low..high`` sentences.

    Every paragraph is long enough (160 chars undiacritized) to survive
    the ingest run-length threshold of 130 characters, so a page's
    extracted body is exactly its paragraphs joined by newlines.
    """
    paragraphs: list[tuple] = []
    current: list = []
    want = rng.randint(low, high)
    for sentence in sentences:
        current.append(sentence)
        if len(current) >= want and len(_page_text(current)) >= 160:
            paragraphs.append(tuple(current))
            current = []
            want = rng.randint(low, high)
    if current:
        if paragraphs:
            paragraphs[-1] = paragraphs[-1] + tuple(current)
        else:
            paragraphs.append(tuple(current))
    return tuple(paragraphs)


def _ingest_html(seed: int):
    """400 pages: ~5% repeat an earlier article, ~3% hold no article."""
    rng = random.Random(f"ingest-html:{seed}")
    articles: list[Article] = []
    pages: list[tuple[Article | None, str, bool]] = []
    for i in range(400):
        roll = rng.random()
        encoding = "windows-1256" if rng.random() < 0.10 else "utf-8"
        if roll < 0.03:
            pages.append((None, encoding, False))
        elif roll < 0.08 and articles:
            pages.append((rng.choice(articles), encoding, True))
        else:
            sentences = [tuple(generate_parts(rng)) for _ in range(rng.randint(5, 10))]
            while len(_page_text(sentences)) < 160:
                sentences.append(tuple(generate_parts(rng)))
            article = Article(url=f"http://bench/html/{len(articles)}",
                              title=f"html doc {len(articles)}",
                              paragraphs=_paragraphs(sentences, rng, 2, 4))
            articles.append(article)
            pages.append((article, encoding, False))
    return articles, pages


def _add_gold(inputs: Inputs) -> None:
    lines = []
    for article in inputs.articles:
        for index, parts in enumerate(article.sentences()):
            labels = sorted({INTENDED_CLASS[p] for p in parts if p in INTENDED_CLASS})
            for label in labels:
                inputs.gold.add((article.doc_id, index, label))
                lines.append(f"{article.doc_id}\t{index}\t{label}\n")
    inputs.files["gold.tsv"] = "".join(lines).encode("utf-8")


# ---------------------------------------------------------------------------
# HTML pages

_SITE = "أخبار الاقتصاد"
_SECTIONS = ["الرئيسية", "اقتصاد", "مال واعمال", "لبنان", "العالم", "رياضة",
             "ثقافة", "تكنولوجيا", "آراء", "فيديو", "صور", "طقس"]
_ENTITIES = {'"': "&quot;", "(": "&#40;", ")": "&#41;", "%": "&#37;"}


def _add_pages(inputs: Inputs, pages, heavy: bool, rng: random.Random,
               diacritized_share: float) -> None:
    seen_bodies: set[str] = set()
    #: article url -> whether its pages keep their harakat; a repeated
    #: article is served as it was the first time
    diacritized: dict[str, bool] = {}
    for i, (article, encoding, duplicate) in enumerate(pages):
        name = f"pages/p{i:04d}.html"
        title = f"{article.title if article else 'section ' + str(i)} | {_SITE}"
        paragraphs = []
        if article:
            if article.url not in diacritized:
                diacritized[article.url] = rng.random() < diacritized_share
            paragraphs = article.paragraph_texts()
            if diacritized[article.url]:
                inputs.diacritized.add(name)
            else:
                paragraphs = [strip_harakat(p) for p in paragraphs]
        page = _render_page(title, paragraphs, encoding, heavy, rng)
        inputs.files[name] = page.encode(encoding)
        inputs.pages += 1
        inputs.page_outcomes[name] = None
        if article is None:
            inputs.boilerplate += 1
            continue
        body = "\n".join(paragraphs)
        if duplicate:
            inputs.duplicates += 1
            continue
        if body in seen_bodies:
            raise AssertionError("generator produced two identical articles")
        seen_bodies.add(body)
        file_name = f"{doc_id_for_url(name)}.corpus.txt"
        inputs.page_outcomes[name] = file_name
        inputs.expected_ingest[file_name] = corpus_file_text(name, title, body)


def _render_page(title, paragraphs, encoding, heavy: bool, rng) -> str:
    """A light page has a title, a short menu and the article; a heavy one
    adds style and script blocks, breadcrumbs, a sidebar, entity
    references and inline links."""
    out = [
        "<!DOCTYPE html>",
        f'<html lang="ar" dir="rtl"><head><meta charset="{encoding}">',
        f"<title>{html.escape(title, quote=False)}</title>",
    ]
    if heavy:
        out.append(_style_block(rng))
        out.append(_script_block(rng))
    out.append("</head><body><header><ul class=\"nav\">")
    for n in range(20 if heavy else 5):
        section = rng.choice(_SECTIONS)
        out.append(f'<li><a href="/section/{n}">{section}</a></li>')
    out.append("</ul></header>")
    if heavy:
        out.append(f'<p class="crumbs">{_SECTIONS[0]} &gt; {rng.choice(_SECTIONS)}'
                   f" &gt; {html.escape(title, quote=False)}</p>")
    if paragraphs:
        out.append(f"<article><h1>{html.escape(title, quote=False)}</h1>")
        out.append(f'<p class="meta">{rng.randint(1, 28)} / {rng.randint(1, 12)} / 2026</p>')
        for text in paragraphs:
            out.append(f"<p>{_article_markup(text, rng) if heavy else html.escape(text, quote=False)}</p>")
        out.append("</article>")
    else:
        for _ in range(rng.randint(3, 8)):
            out.append(f'<p class="teaser"><a href="/story/{rng.randint(1, 99999)}">'
                       f"{_short_line(rng)}</a></p>")
    if heavy:
        out.append("<aside><h3>الأكثر قراءة</h3><ol>")
        for _ in range(rng.randint(6, 12)):
            out.append(f'<li><a href="/story/{rng.randint(1, 99999)}">{_short_line(rng)}</a></li>')
        out.append("</ol></aside>")
        out.append(_script_block(rng))
    out.append(f"<footer><p>&copy; 2026 {_SITE} &middot; {rng.choice(_SECTIONS)}</p></footer>")
    out.append("</body></html>")
    return "\n".join(out) + "\n"


def _article_markup(text: str, rng: random.Random) -> str:
    """Entity references for some characters and one inline link.

    The link wraps a word that has a space on both sides; extraction turns
    the tag's newlines back into those single spaces.
    """
    words = text.split(" ")
    escaped = ["".join(_ENTITIES.get(ch, ch) for ch in w) for w in words]
    if len(words) > 2:
        k = rng.randint(1, len(words) - 2)
        escaped[k] = f'<a href="/tag/{rng.randint(1, 999)}">{escaped[k]}</a>'
    return " ".join(escaped)


def _short_line(rng: random.Random) -> str:
    return " ".join(rng.choice(DISTRACTOR_PARTS) for _ in range(rng.randint(3, 6)))


def _style_block(rng: random.Random) -> str:
    rules = [
        f".c{n} {{ margin: {rng.randint(0, 20)}px {rng.randint(0, 20)}px; "
        f"color: #{rng.randrange(16 ** 6):06x}; font-size: {rng.randint(10, 24)}px; }}"
        for n in range(rng.randint(25, 40))
    ]
    return "<style>\n" + "\n".join(rules) + "\n</style>"


def _script_block(rng: random.Random) -> str:
    lines = [
        f"var v{n} = [{rng.randint(0, 999)}, {rng.randint(0, 999)}, '{rng.choice(_SECTIONS)}'];"
        f" function f{n}(x) {{ return x < {rng.randint(1, 99)} ? x * {rng.randint(2, 9)} : v{n}[0]; }}"
        for n in range(rng.randint(8, 16))
    ]
    return "<script>\n" + "\n".join(lines) + "\n</script>"
