"""Seeded corpora and the benchmark's own model of them (the oracle).

Every document the benchmark stores is generated here from a seed, and the
workload adds each stored document to a plain-Python :class:`Model`: per
document key the products' ids, names, prices, discounts and descriptions,
or the Fig. 6 block facts.  Read results are checked against answers
computed from this model alone, never from the engine.

Documents have the Table 2 shape of ``repro.workload.generator``
(``/Catalog/Categories/Product`` with ``@id``, ``ProductName``,
``RegPrice``, ``Discount`` and ``Description``) and the Fig. 6 shape
(``<b><s><t>..</t><f w="..">..</f></s></b>`` blocks).  Prices are drawn without
replacement from whole cents, so a point probe ``RegPrice = v`` has a known
answer and a price ending in half a cent is a guaranteed miss.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORDS = ("alpha bravo charlie delta echo foxtrot golf hotel india juliet "
         "kilo lima mike november oscar papa quebec romeo sierra tango "
         "uniform victor whiskey xray yankee zulu").split()

#: A result row as the benchmark compares it: (document key, item value).
Row = tuple[int, str]


@dataclass
class Product:
    pid: str
    name: str
    price: str
    discount: str
    description: str

    @property
    def string_value(self) -> str:
        """XDM string value of the ``Product`` element (text in order)."""
        return self.name + self.price + self.discount + self.description

    def xml(self) -> str:
        return (f'<Product id="{self.pid}">'
                f"<ProductName>{self.name}</ProductName>"
                f"<RegPrice>{self.price}</RegPrice>"
                f"<Discount>{self.discount}</Discount>"
                f"<Description>{self.description}</Description>"
                f"</Product>")


@dataclass
class CatalogDoc:
    key: int
    products: list[Product]

    def xml(self) -> str:
        return ("<Catalog><Categories>"
                + "".join(p.xml() for p in self.products)
                + "</Categories></Catalog>")


@dataclass
class Block:
    t: str
    weight: int
    words: str
    nested: bool

    def xml(self) -> str:
        inner = (f"<s><t>{self.t}</t>"
                 f'<f w="{self.weight}">{self.words}</f></s>')
        return f"<b><b>{inner}</b></b>" if self.nested else f"<b>{inner}</b>"


@dataclass
class Fig6Doc:
    key: int
    blocks: list[Block]

    def xml(self) -> str:
        return "<r>" + "".join(b.xml() for b in self.blocks) + "</r>"


@dataclass
class Model:
    """What the benchmark stored: document key -> document facts."""

    catalog: dict[int, CatalogDoc] = field(default_factory=dict)
    fig6: dict[int, Fig6Doc] = field(default_factory=dict)

    def add(self, doc: "CatalogDoc | Fig6Doc") -> None:
        table = self.catalog if isinstance(doc, CatalogDoc) else self.fig6
        table[doc.key] = doc

    def products(self):
        for doc in self.catalog.values():
            for product in doc.products:
                yield doc.key, product

    def user_bytes(self) -> int:
        """Bytes of live user XML text (the space-amplification base)."""
        return (sum(len(d.xml().encode()) for d in self.catalog.values())
                + sum(len(d.xml().encode()) for d in self.fig6.values()))

    # -- expected answers, one per query template ------------------------

    def product_rows(self, keep) -> list[Row]:
        return sorted((key, p.string_value) for key, p in self.products()
                      if keep(p))

    def child_rows(self, attr: str, keep=lambda p: True) -> list[Row]:
        return sorted((key, getattr(p, attr)) for key, p in self.products()
                      if keep(p))

    def fig6_rows(self, min_weight: int) -> list[Row]:
        return sorted((doc.key, b.t + b.words) for doc in self.fig6.values()
                      for b in doc.blocks
                      if b.t == "XML" and b.weight > min_weight)


class CorpusGenerator:
    """Seeded document factory; callers add what is stored to a model."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        #: Whole-cent prices in [10, 500), handed out without replacement.
        self._cents: list[int] | None = None

    def sizes(self, count: int, low: int, high: int) -> list[int]:
        """``count`` sizes in [low, high], each size equally often: every
        run of ``high - low + 1`` documents holds each size once, so every
        seed gets the same mix of document sizes."""
        span = list(range(low, high + 1))
        out: list[int] = []
        while len(out) < count:
            self.rng.shuffle(span)
            out += span
        return out[:count]

    def words(self, count: int) -> str:
        return " ".join(self.rng.choice(WORDS) for _ in range(count))

    def take_price(self) -> str:
        if self._cents is None:
            self._cents = self.rng.sample(range(1000, 50000), 40000)
        return f"{self._cents.pop() / 100:.2f}"

    def catalog_doc(self, key: int, n_products: int,
                    price=None) -> CatalogDoc:
        rng = self.rng
        products = [
            Product(pid=f"p{key}-{i}",
                    name=f"{rng.choice(WORDS).title()}{i}",
                    price=price() if price else self.take_price(),
                    discount=f"{rng.uniform(0, 0.5):.3f}",
                    description=self.words(rng.randint(3, 8)))
            for i in range(n_products)]
        return CatalogDoc(key, products)

    def fig6_doc(self, key: int, n_blocks: int) -> Fig6Doc:
        rng = self.rng
        blocks = [Block(t="XML" if rng.random() < 0.5 else "SGML",
                        weight=rng.randint(1, 900),
                        words=self.words(3),
                        nested=rng.random() < 0.2)
                  for _ in range(n_blocks)]
        return Fig6Doc(key, blocks)
