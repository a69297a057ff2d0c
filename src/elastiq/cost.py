"""Compute and memory accounting, and per-layer device prices.

Multiply-add counts and byte footprints of the path network.forward
executes at each operating point, both read from elastic: FLOPs from
elastic.served_flops (the cheaper of the staged factors and the rebuilt
weight, the one elastic.runs_staged picks) and bytes from the factor
slices of elastic._rank_slices at the profile's bit width.

A DeviceTable prices each layer's menu entries on one device, plus one
per-forward overhead, and a profile costs their sum (profile_price). No
hardware is touched: synth_device_table prices entries from a planted
linear model over their FLOPs and bytes, so planning runs on a desk;
its tables are complete and positive by construction. read_device_table
checks an imported table once; the rest of the module trusts its callers.

Bytes are rounded up per tensor. Unquantized factors are counted at 32
bits.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import elastic, network

ACTIVATION_BITS = 8
# an unquantized factor's bits, and so the widest stored width: a wider one
# would cost more bytes than the float factor
UNQUANTIZED_BITS = 32
# a device table's price columns
LATENCY, ENERGY = 0, 1
_CSV_HEADER = ["layer", "rank", "bits", "latency_ms", "energy_mj"]
_OVERHEAD = "overhead"


@dataclass(frozen=True)
class LayerCost:
    flops: int
    weight_bytes: int
    activation_bytes: int


def _tensor_bytes(count, bits):
    return -(-count * bits // 8)


def bytes_of(layer, k, q=None):
    """Weight bytes of a layer at rank k and bit width q: its rank-k
    factor slices (u, core, v) at q bits per value, q None counting 32-bit
    floats. Each slice is rounded up to whole bytes on its own."""
    bits = UNQUANTIZED_BITS if q is None else int(q)
    return sum(_tensor_bytes(t.size, bits)
               for t in elastic._rank_slices(layer, k))


def layer_cost(layer, k, q=None, spatial=None):
    """Full accounting for one layer at one operating point.

    Dense layers need no spatial size; conv layers require
    spatial=(H, W) of the feature map. FLOPs are those of the path
    network.forward executes: the fewer of elastic.served_flops' two
    counts per output position, times H*W for a conv layer. Activation
    bytes cover one input read plus one output write at ACTIVATION_BITS.
    """
    positions = 1
    if layer.kind == elastic.CONV_TUCKER2:
        positions = spatial[0] * spatial[1]
    act_elems = (layer.in_features + layer.out_features) * positions
    return LayerCost(flops=int(min(elastic.served_flops(layer, k))
                               * positions),
                     weight_bytes=int(bytes_of(layer, k, q)),
                     activation_bytes=int(_tensor_bytes(act_elems,
                                                        ACTIVATION_BITS)))


def profile_costs(net, profile, spatial=None):
    """Per-layer LayerCost list for one profile of a network."""
    entries = network.resolve_profile(net, profile)
    return [layer_cost(b.elastic, k, q, spatial)
            for b, (k, q) in zip(net.blocks, entries)]


@dataclass(frozen=True)
class DeviceTable:
    """Per-layer prices on one device.

    overhead is the (latency_ms, energy_mj) of one forward pass apart from
    its layers; layers[ell] maps a menu entry (k, q), q None for float
    factors, to layer ell's (latency_ms, energy_mj) at that entry. Energy
    is None in every price or in none. Every price is positive and
    finite, and so is every profile's sum of them.
    """

    device: str
    overhead: tuple
    layers: tuple

    @property
    def has_energy(self):
        return self.overhead[ENERGY] is not None

    def price(self, ell, entry, column=LATENCY):
        """Layer ell's price of menu entry (k, q) in one column."""
        return self.layers[ell][entry][column]


def profile_price(table, pairs, column=LATENCY):
    """A profile's price on the table's device: the overhead, then each
    layer's entry, added in layer order. controller.allocate accumulates
    in the same order, so the two agree bit for bit."""
    total = table.overhead[column]
    for ell, entry in enumerate(pairs):
        total += table.price(ell, entry, column)
    return total


def synth_device_table(net, menus, spatial=None, device="synth0", seed=0):
    """Price each layer's menu entries from a planted linear model.

    The coefficients are drawn from default_rng(seed) in this order: a
    log-uniform kernel-launch intercept, which is the overhead, then
    per-layer compute and memory coefficients, then the same three for
    energy. An entry's latency is comp * flops + mem * (weight_bytes +
    activation_bytes) of its layer_cost at spatial, energy likewise, so
    prices never fall along a layer's componentwise menu order.
    """
    n = len(net.blocks)
    # ranges sized so desk-scale FLOP and byte counts cost on the order of
    # the overhead
    rng = np.random.default_rng(seed)
    intercept = 10.0 ** rng.uniform(-2.0, -1.0)
    comp = 10.0 ** rng.uniform(-4.0, -3.0, n)
    mem = 10.0 ** rng.uniform(-4.0, -3.0, n)
    e_intercept = 10.0 ** rng.uniform(-1.0, 0.0)
    e_comp = 10.0 ** rng.uniform(-4.0, -3.0, n)
    e_mem = 10.0 ** rng.uniform(-4.0, -3.0, n)
    layers = []
    for ell, (blk, menu) in enumerate(zip(net.blocks, menus)):
        prices = {}
        for k, q in menu:
            c = layer_cost(blk.elastic, k, q, spatial)
            b = c.weight_bytes + c.activation_bytes
            prices[(k, q)] = (float(comp[ell] * c.flops + mem[ell] * b),
                              float(e_comp[ell] * c.flops + e_mem[ell] * b))
        layers.append(prices)
    return DeviceTable(device, (float(intercept), float(e_intercept)),
                       tuple(layers))


def write_device_table(table, path):
    """CSV export: header layer,rank,bits,latency_ms,energy_mj, an overhead
    row (layer "overhead", rank and bits blank), then each layer's entries.
    Blank bits are float factors, a blank energy_mj none. The device id is
    not part of the format."""
    def cells(price):
        return [repr(float(v)) if v is not None else "" for v in price]

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        writer.writerow([_OVERHEAD, "", "", *cells(table.overhead)])
        for ell, prices in enumerate(table.layers):
            for (k, q), price in prices.items():
                writer.writerow([ell, k, "" if q is None else q,
                                 *cells(price)])


def read_device_table(path, menus, device="imported"):
    """Inverse of write_device_table, checked against menus, each layer's
    (k, q) entries: refuses a bad header, a row of another length or with
    unparsable numbers, an entry or overhead given twice, no overhead row,
    layers not numbered 0, 1, ..., a price that is not positive and
    finite, energy in some entries only, overflowing profile sums, and any
    layer or menu entry left unpriced."""
    prices = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, []) != _CSV_HEADER:
            raise ValueError("unrecognized device table header")
        for row in filter(None, reader):
            text = ",".join(row)
            if len(row) != len(_CSV_HEADER):
                raise ValueError(f"device table row {text!r} needs "
                                 f"{len(_CSV_HEADER)} fields")
            where, k, q, lat, energy = row
            try:
                key = where if where == _OVERHEAD else \
                    (int(where), int(k), int(q) if q else None)
                price = (float(lat), float(energy) if energy else None)
            except ValueError as exc:
                raise ValueError(f"device table row {text!r}: {exc}") \
                    from None
            if key in prices:
                raise ValueError(f"device table row {text!r} prices its "
                                 f"entry twice")
            prices[key] = price
    if _OVERHEAD not in prices:
        raise ValueError("device table has no overhead row")
    overhead = prices.pop(_OVERHEAD)
    n = len({key[0] for key in prices})
    if any(not 0 <= key[0] < n for key in prices):
        raise ValueError("device table layers must be numbered 0, 1, ...")
    layers = tuple({key[1:]: p for key, p in prices.items()
                    if key[0] == ell} for ell in range(n))
    priced = [("the overhead", overhead)] + [
        (f"layer {ell} at {entry}", price)
        for ell, entries in enumerate(layers)
        for entry, price in entries.items()]
    for where, price in priced:
        for name, value in zip(("latency", "energy"), price):
            if value is not None and not 0.0 < value < math.inf:
                raise ValueError(f"{name} of {where} must be positive "
                                 f"and finite")
        if (price[ENERGY] is None) != (overhead[ENERGY] is None):
            raise ValueError("energy must be priced everywhere or nowhere")
    # no profile costs more than the overhead plus each layer's dearest
    # entry, summed in profile_price's order
    for column, name in ((LATENCY, "latency"), (ENERGY, "energy")):
        if overhead[column] is not None and not math.isfinite(sum(
                [overhead[column]] + [max(p[column] for p in e.values())
                                      for e in layers])):
            raise ValueError(f"device table {name} prices overflow "
                             f"float64 when a profile sums them")
    if n != len(menus):
        raise ValueError(f"device table prices {n} layers, the profile "
                         f"has {len(menus)}")
    for ell, (entries, menu) in enumerate(zip(layers, menus)):
        for k, q in menu:
            if (k, q) not in entries:
                width = "float" if q is None else f"{q} bits"
                raise ValueError(f"device table has no price for layer "
                                 f"{ell} at rank {k}, {width}")
    return DeviceTable(device, overhead, layers)
