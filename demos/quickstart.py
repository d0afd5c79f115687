"""Smallest possible tour: feed a few sentences to the engine and print
what it finds, with the matched marker words pulled back out of the text."""

from arfuture import load_engine
from arfuture.corpus import make_document

engine = load_engine()

TEXT = (
    "توقع صندوق النقد الدولي أن يبلغ النمو 1.5 في المائة. "
    "الضغوط المالية سوف تتزايد، وبما سيؤثر سلبا على الوضع النقدي. "
    "من المرجح ان تتراجع الوزارة عن القرار. "
    "التقى الوزير سيمون في جنيف قبل ان يسافر الى سويسرا."
)

doc = make_document(url="http://demo.local/quickstart", title="جولة سريعة", body=TEXT)
analysis = engine.analyze(doc)

print(f"{len(analysis.sentences)} sentences, {len(analysis.annotations)} future-expression matches\n")
for ann in analysis.annotations:
    sentence = analysis.sentences[ann.sentence_index]
    text = sentence.text.encode()  # spans are UTF-8 byte offsets
    markers = " + ".join(text[a:b].decode() for a, b in ann.positive_marker_spans)
    print(f"  sentence {ann.sentence_index}  class={ann.class_label:<12s}  markers: {markers}")

print("\nNote the last sentence: سيمون and سويسرا start with the future prefix")
print("letter but stay unflagged thanks to the proper-noun stoplist.")
