"""Corpus churn: seeded perturbation of a document's structure.

:func:`mutate_document` is the replacement text a churn schedule feeds
:meth:`~repro.corpus.service.CorpusService.replace_document` — the
benchmark's document churn and the serving example draw their edits
from it.
"""

from __future__ import annotations

import random
import xml.etree.ElementTree as ET

from repro.graph.xml_io import ID_ATTRIBUTE


def mutate_document(text: str, rng: random.Random) -> str:
    """Return a structurally perturbed version of *text*.

    Three moves, chosen at random: tweak a leaf's text, graft a fresh
    (id-free) child element somewhere, or delete a subtree that contains
    no ``id`` attribute anywhere — deleting an identified element could
    orphan intra-document references and make the result unparseable,
    which is not the failure mode churn is meant to exercise.
    """
    root = ET.fromstring(text)
    elements = list(root.iter())
    move = rng.randrange(3)

    if move == 0:  # tweak a leaf's text
        leaves = [el for el in elements if len(el) == 0]
        victim = rng.choice(leaves)
        victim.text = f"v{rng.randrange(10_000)}"
    elif move == 1:  # graft a fresh child
        parent = rng.choice(elements)
        child = ET.SubElement(parent, rng.choice(("note", "extra", "aux")))
        child.text = f"v{rng.randrange(10_000)}"
    else:  # delete an id-free subtree (root excluded)
        parent_of = {child: parent for parent in root.iter() for child in parent}
        id_free = [
            el
            for el in elements
            if el is not root
            and not any(ID_ATTRIBUTE in d.attrib for d in el.iter())
        ]
        if id_free:
            victim = rng.choice(id_free)
            parent_of[victim].remove(victim)
        else:  # nothing deletable; fall back to a text tweak
            victim = rng.choice(elements)
            victim.text = f"v{rng.randrange(10_000)}"
    return ET.tostring(root, encoding="unicode")
