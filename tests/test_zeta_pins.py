"""Zeta values pinned bit for bit: the repr of each value, signed zeros
included. A change to the Euler-Maclaurin kernel or its callers that moves
any float operation shows here. Each pinned value is also held to its recorded
error against the 40-digit Hurwitz oracles, so a re-pin is checked for
accuracy as well as for bits."""

import hashlib
import random
from fractions import Fraction as F

import mpmath
import pytest

from echspec import Ellipsoid, ZetaConvention, barnes_zeta, ech_laurent_pair, ech_zeta, hurwitz_zeta

from oracles import barnes_zeta_hurwitz, distinct_zeta_hurwitz, full_zeta_hurwitz, interior_zeta_hurwitz

# (function, s, arguments, repr of the value, its relative error against oracle()
# rounded up, or None where the oracle takes seconds): real s from -1.5 to 30,
# complex s from Re s = -3.9 to |Im s| = 1000, both axis orders, all three conventions
PINNED = [
    ("hurwitz", 3.0, (1.0,), "(1.2020569031595942+0j)", 0.0),
    ("hurwitz", 3.0, (0.37,), "(20.26516349878869+0j)", 1.8e-16),
    ("barnes", 3.0, (2.0, "2", "3"), "(0.17968661927569177+0j)", 0.0),
    ("barnes", 3.0, (0.6666666666666666, "2", "3"), "(3.4953761986003116+0j)", 2.6e-16),
    ("barnes", 3.0, (2.0, "3", "2"), "(0.17968661927569177+0j)", 0.0),
    ("barnes", 3.0, (0.6666666666666666, "3", "2"), "(3.4953761986003116+0j)", 2.6e-16),
    ("ech", 3.0, ("2", "3", "interior"), "(0.029429506380742487+0j)", 0.0),
    ("ech", 3.0, ("2", "3", "full"), "(0.2242072453186397+0j)", 0.0),
    ("ech", 3.0, ("2", "3", "distinct"), "(0.20205690315959426+0j)", 1.4e-16),
    ("ech", 3.0, ("3", "2", "interior"), "(0.029429506380742487+0j)", 0.0),
    ("ech", 3.0, ("3", "2", "full"), "(0.2242072453186397+0j)", 0.0),
    ("ech", 3.0, ("3", "2", "distinct"), "(0.20205690315959426+0j)", 1.4e-16),
    ("ech", 3.0, ("3", "5", "interior"), "(0.007344040189439946+0j)", 3.6e-16),
    ("ech", 3.0, ("3", "5", "full"), "(0.06148112145766463+0j)", 2.3e-16),
    ("ech", 3.0, ("3", "5", "distinct"), "(0.058516451264550545+0j)", 1.2e-16),
    ("ech", 3.0, ("5", "3", "distinct"), "(0.058516451264550545+0j)", 1.2e-16),
    ("ech", 3.0, ("1", "6765/4181", "distinct"), "(1.6939349680948141+0j)", None),
    ("hurwitz", 0.5, (1.0,), "(-1.4603545088095866-0j)", 1.6e-16),
    ("hurwitz", 0.5, (0.37,), "(-0.24452808988810928-0j)", 1.6e-15),
    ("barnes", 0.5, (2.0, "2", "3"), "(-0.20953755078343494-0j)", 7.7e-14),
    ("barnes", 0.5, (0.6666666666666666, "2", "3"), "(0.12081333615195264-0j)", 8.0e-14),
    ("barnes", 0.5, (2.0, "3", "2"), "(-0.20953755078343494-0j)", 7.7e-14),
    ("barnes", 0.5, (0.6666666666666666, "3", "2"), "(0.12081333615195264-0j)", 8.0e-14),
    ("ech", 0.5, ("2", "3", "interior"), "(0.8230890253321737+0j)", 2.0e-14),
    ("ech", 0.5, ("2", "3", "full"), "(-1.0526736195569333+0j)", 1.5e-14),
    ("ech", 0.5, ("2", "3", "distinct"), "(-2.460354508809587-0j)", 1.9e-16),
    ("ech", 0.5, ("3", "2", "interior"), "(0.8230890253321737+0j)", 2.0e-14),
    ("ech", 0.5, ("3", "2", "full"), "(-1.0526736195569333+0j)", 1.5e-14),
    ("ech", 0.5, ("3", "2", "distinct"), "(-2.460354508809587-0j)", 1.9e-16),
    ("ech", 0.5, ("3", "5", "interior"), "(0.6653949128228493+0j)", 4.2e-15),
    ("ech", 0.5, ("3", "5", "full"), "(-0.8308315465399594+0j)", 3.7e-15),
    ("ech", 0.5, ("3", "5", "distinct"), "(-4.045425763005363-0j)", 2.2e-16),
    ("ech", 0.5, ("5", "3", "distinct"), "(-4.045425763005363-0j)", 2.2e-16),
    ("ech", 0.5, ("1", "6765/4181", "distinct"), "(-458382.59103418834-0j)", None),
    ("hurwitz", -1.5, (1.0,), "(-0.025485201889800562-0j)", 1.3e-12),
    ("hurwitz", -1.5, (0.37,), "(0.0014716844551704844-0j)", 3.8e-11),
    ("barnes", -1.5, (2.0, "2", "3"), "(0.05553043845084692-0j)", 1.4e-11),
    ("barnes", -1.5, (0.6666666666666666, "2", "3"), "(-0.0718875088452811-0j)", 2.0e-12),
    ("barnes", -1.5, (2.0, "3", "2"), "(0.05553043845084692-0j)", 1.4e-11),
    ("barnes", -1.5, (0.6666666666666666, "3", "2"), "(-0.0718875088452811-0j)", 2.0e-12),
    ("ech", -1.5, ("2", "3", "interior"), "(0.1276134747555917+0j)", 5.2e-12),
    ("ech", -1.5, ("2", "3", "full"), "(-0.07689455509200792-0j)", 1.3e-11),
    ("ech", -1.5, ("2", "3", "distinct"), "(-1.0254852018895027-0j)", 3.3e-13),
    ("ech", -1.5, ("3", "2", "interior"), "(0.1276134747555917+0j)", 5.2e-12),
    ("ech", -1.5, ("3", "2", "full"), "(-0.07689455509200792-0j)", 1.3e-11),
    ("ech", -1.5, ("3", "2", "distinct"), "(-1.0254852018895027-0j)", 3.3e-13),
    ("ech", -1.5, ("3", "5", "interior"), "(0.25005819068563956+0j)", 4.0e-12),
    ("ech", -1.5, ("3", "5", "full"), "(-0.1673000220867161-0j)", 2.8e-12),
    ("ech", -1.5, ("3", "5", "distinct"), "(-30.374171504088302-0j)", 4.8e-15),
    ("ech", -1.5, ("5", "3", "distinct"), "(-30.374171504088302-0j)", 4.8e-15),
    ("ech", -1.5, ("1", "6765/4181", "distinct"), "(-1797411236311.1106-0j)", None),
    ("hurwitz", 30.0, (1.0,), "(1.0000000009313275+0j)", 0.0),
    ("hurwitz", 30.0, (0.37,), "(8993904628479.926+0j)", 2.2e-16),
    ("barnes", 30.0, (2.0, "2", "3"), "(9.313225754839185e-10+0j)", 0.0),
    ("barnes", 30.0, (0.6666666666666666, "2", "3"), "(191751.0592328842+0j)", 1.1e-15),
    ("barnes", 30.0, (2.0, "3", "2"), "(9.313225754839185e-10+0j)", 0.0),
    ("barnes", 30.0, (0.6666666666666666, "3", "2"), "(191751.0592328842+0j)", 1.1e-15),
    ("ech", 30.0, ("2", "3", "interior"), "(1.07368043509383e-21+0j)", 1.0e-4),
    ("ech", 30.0, ("2", "3", "full"), "(9.313274324196727e-10+0j)", 0.0),
    ("ech", 30.0, ("2", "3", "distinct"), "(9.313274324196682e-10+0j)", 0.0),
    ("ech", 30.0, ("3", "2", "interior"), "(1.07368043509383e-21+0j)", 1.0e-4),
    ("ech", 30.0, ("3", "2", "full"), "(9.313274324196727e-10+0j)", 0.0),
    ("ech", 30.0, ("3", "2", "distinct"), "(9.313274324196682e-10+0j)", 0.0),
    ("ech", 30.0, ("3", "5", "interior"), "(8.077935669463161e-28+0j)", 7.2e-5),
    ("ech", 30.0, ("3", "5", "full"), "(4.856936827884892e-15+0j)", 1.7e-16),
    ("ech", 30.0, ("3", "5", "distinct"), "(4.856936827884892e-15+0j)", 1.7e-16),
    ("ech", 30.0, ("5", "3", "distinct"), "(4.856936827884892e-15+0j)", 1.7e-16),
    ("ech", 30.0, ("1", "6765/4181", "distinct"), "(1.0000005384223716+0j)", None),
    ("hurwitz", (-3.9+0.5j), (1.0,), "(0.00020964182638159097+0.004508145838668965j)", 3.5e-8),
    ("hurwitz", (-3.9+0.5j), (0.37,), "(0.004349290222649511-0.0027073690783909446j)", 5.5e-8),
    ("barnes", (-3.9+0.5j), (2.0, "2", "3"), "(-0.19618355285408848-0.042654498003330266j)", 1.9e-7),
    ("barnes", (-3.9+0.5j), (0.6666666666666666, "2", "3"), "(0.28137651018218834-0.03242721059536713j)", 1.4e-7),
    ("barnes", (-3.9+0.5j), (2.0, "3", "2"), "(-0.19618355285408848-0.042654498003330266j)", 1.9e-7),
    ("barnes", (-3.9+0.5j), (0.6666666666666666, "3", "2"), "(0.28137651018218834-0.03242721059536713j)", 1.4e-7),
    ("ech", (-3.9+0.5j), ("2", "3", "interior"), "(-0.2219873786520788-0.10488989513762681j)", 1.4e-7),
    ("ech", (-3.9+0.5j), ("2", "3", "full"), "(-0.012394531533202746+0.22843955394768062j)", 2.1e-7),
    ("ech", (-3.9+0.5j), ("2", "3", "distinct"), "(-0.9997903580623296+0.00450815123788437j)", 5.6e-9),
    ("ech", (-3.9+0.5j), ("3", "2", "interior"), "(-0.2219873786520788-0.10488989513762681j)", 1.4e-7),
    ("ech", (-3.9+0.5j), ("3", "2", "full"), "(-0.012394531533202746+0.22843955394768062j)", 2.1e-7),
    ("ech", (-3.9+0.5j), ("3", "2", "distinct"), "(-0.9997903580623296+0.00450815123788437j)", 5.6e-9),
    ("ech", (-3.9+0.5j), ("3", "5", "interior"), "(-1.4649255598716195-0.5182427145018613j)", 3.1e-8),
    ("ech", (-3.9+0.5j), ("3", "5", "full"), "(0.5248102764396385+1.3355370975499516j)", 9.7e-8),
    ("ech", (-3.9+0.5j), ("3", "5", "distinct"), "(-1298.928698251729+1781.1017346180026j)", 2.1e-11),
    ("ech", (-3.9+0.5j), ("5", "3", "distinct"), "(-1298.928698251729+1781.1017346180026j)", 2.1e-11),
    ("ech", (-3.9+0.5j), ("1", "6765/4181", "distinct"), "(3.945234054573835e+20-7.415121974616084e+20j)", None),
    ("hurwitz", (-2.9+0.5j), (1.0,), "(0.010904427406154172+0.002593697866150855j)", 1.2e-10),
    ("hurwitz", (-2.9+0.5j), (0.37,), "(-0.006749803955622902-0.006066245575277455j)", 7.3e-10),
    ("barnes", (-2.9+0.5j), (2.0, "2", "3"), "(-0.06518454604521731+0.07807310254366592j)", 3.2e-9),
    ("barnes", (-2.9+0.5j), (0.6666666666666666, "2", "3"), "(0.01619274809008416-0.11389150941222934j)", 4.2e-9),
    ("barnes", (-2.9+0.5j), (2.0, "3", "2"), "(-0.06518454604521731+0.07807310254366592j)", 3.2e-9),
    ("barnes", (-2.9+0.5j), (0.6666666666666666, "3", "2"), "(0.01619274809008416-0.11389150941222934j)", 4.2e-9),
    ("ech", (-2.9+0.5j), ("2", "3", "interior"), "(-0.14831474716927662+0.08751168296366518j)", 1.9e-9),
    ("ech", (-2.9+0.5j), ("2", "3", "full"), "(0.19255480711510017-0.006135880598254262j)", 1.8e-9),
    ("ech", (-2.9+0.5j), ("2", "3", "distinct"), "(-0.9890955725963244+0.0025936978820434364j)", 1.6e-11),
    ("ech", (-2.9+0.5j), ("3", "2", "interior"), "(-0.14831474716927662+0.08751168296366518j)", 1.9e-9),
    ("ech", (-2.9+0.5j), ("3", "2", "full"), "(0.19255480711510017-0.006135880598254262j)", 1.8e-9),
    ("ech", (-2.9+0.5j), ("3", "2", "distinct"), "(-0.9890955725963244+0.0025936978820434364j)", 1.6e-11),
    ("ech", (-2.9+0.5j), ("3", "5", "interior"), "(-0.5392928027318644+0.4685276602651245j)", 2.3e-9),
    ("ech", (-2.9+0.5j), ("3", "5", "full"), "(0.7218891525154894-0.26055795668666026j)", 2.3e-9),
    ("ech", (-2.9+0.5j), ("3", "5", "distinct"), "(-209.78997576640174+271.51317369890256j)", 2.1e-13),
    ("ech", (-2.9+0.5j), ("5", "3", "distinct"), "(-209.78997576640174+271.51317369890256j)", 2.1e-13),
    ("ech", (-2.9+0.5j), ("1", "6765/4181", "distinct"), "(9.484979846148094e+16-1.6117040044884624e+17j)", None),
    ("hurwitz", (2.5-16j), (1.0,), "(1.0138600780071645-0.2367130048228403j)", 4.4e-16),
    ("hurwitz", (2.5-16j), (0.37,), "(-11.548148172985497+2.0749104726461107j)", 7.3e-16),
    ("barnes", (2.5-16j), (2.0, "2", "3"), "(-0.004208614255639157-0.17104410999959435j)", 7.6e-16),
    ("barnes", (2.5-16j), (0.6666666666666666, "2", "3"), "(2.6106247819877297-0.5376448409334027j)", 9.0e-16),
    ("barnes", (2.5-16j), (2.0, "3", "2"), "(-0.004208614255639157-0.17104410999959435j)", 7.6e-16),
    ("barnes", (2.5-16j), (0.6666666666666666, "3", "2"), "(2.6106247819877297-0.5376448409334027j)", 9.0e-16),
    ("ech", (2.5-16j), ("2", "3", "interior"), "(0.020487108389809383+0.011338487981747664j)", 1.2e-15),
    ("ech", (2.5-16j), ("2", "3", "full"), "(0.0004406883131098903-0.23767041299446223j)", 6.0e-16),
    ("ech", (2.5-16j), ("2", "3", "distinct"), "(0.013860078007164763-0.23671300482284033j)", 3.9e-16),
    ("ech", (2.5-16j), ("3", "2", "interior"), "(0.020487108389809383+0.011338487981747664j)", 1.2e-15),
    ("ech", (2.5-16j), ("3", "2", "full"), "(0.0004406883131098903-0.23767041299446223j)", 6.0e-16),
    ("ech", (2.5-16j), ("3", "2", "distinct"), "(0.013860078007164763-0.23671300482284033j)", 3.9e-16),
    ("ech", (2.5-16j), ("3", "5", "interior"), "(-0.0010734371664930273+0.006255767826276244j)", 1.7e-15),
    ("ech", (2.5-16j), ("3", "5", "full"), "(0.02080939639235153-0.05330881391731852j)", 1.6e-15),
    ("ech", (2.5-16j), ("3", "5", "distinct"), "(0.020410125799018596-0.05269956884767951j)", 1.9e-15),
    ("ech", (2.5-16j), ("5", "3", "distinct"), "(0.020410125799018596-0.05269956884767951j)", 1.9e-15),
    ("ech", (2.5-16j), ("1", "6765/4181", "distinct"), "(1.032720395070838+0.09738632801203428j)", None),
    ("hurwitz", (1.5-1000j), (1.0,), "(0.9555445813034635+0.09613241765160398j)", 5.5e-14),
    ("hurwitz", (1.5-1000j), (0.37,), "(0.49610342824389336-3.823319797844604j)", 3.0e-15),
    ("barnes", (1.5-1000j), (2.0, "2", "3"), "(-0.23645799002486273+0.13119645244388675j)", 2.3e-13),
    ("barnes", (1.5-1000j), (0.6666666666666666, "2", "3"), "(-1.3450597507443924+0.2195174390675189j)", 2.0e-13),
    ("barnes", (1.5-1000j), (2.0, "3", "2"), "(-0.23645799002486273+0.13119645244388675j)", 2.3e-13),
    ("barnes", (1.5-1000j), (0.6666666666666666, "3", "2"), "(-1.3450597507443924+0.2195174390675189j)", 2.0e-13),
    ("ech", (1.5-1000j), ("2", "3", "interior"), "(-0.06590303086845067-0.1624008346346877j)", 1.9e-13),
    ("ech", (1.5-1000j), ("2", "3", "full"), "(-0.11376762217332402-0.007030129762208237j)", 7.6e-13),
    ("ech", (1.5-1000j), ("2", "3", "distinct"), "(-0.044455418696586105+0.0961324176516023j)", 6.8e-14),
    ("ech", (1.5-1000j), ("3", "2", "interior"), "(-0.06590303086845067-0.1624008346346877j)", 1.9e-13),
    ("ech", (1.5-1000j), ("3", "2", "full"), "(-0.11376762217332402-0.007030129762208237j)", 7.6e-13),
    ("ech", (1.5-1000j), ("3", "2", "distinct"), "(-0.044455418696586105+0.0961324176516023j)", 6.8e-14),
    ("ech", (1.5-1000j), ("3", "5", "interior"), "(-0.000648651768385633-0.05621005565922918j)", 8.2e-13),
    ("ech", (1.5-1000j), ("3", "5", "full"), "(0.16532175732161966-0.12023897524006176j)", 2.1e-13),
    ("ech", (1.5-1000j), ("3", "5", "distinct"), "(0.20024552259038894-0.08026896308898095j)", 1.3e-13),
    ("ech", (1.5-1000j), ("5", "3", "distinct"), "(0.20024552259038894-0.08026896308898095j)", 1.3e-13),
]


def value(kind, s, args):
    if kind == "hurwitz":
        return hurwitz_zeta(s, *args)
    if kind == "barnes":
        w, a, b = args
        return barnes_zeta(s, w, Ellipsoid(F(a), F(b)))
    a, b, conv = args
    return ech_zeta(s, Ellipsoid(F(a), F(b)), ZetaConvention(conv))


def oracle(kind, s, args) -> complex:
    """The pinned value at 40 digits: mpmath's Hurwitz zeta, or a Hurwitz reduction."""
    if kind == "hurwitz":
        with mpmath.workdps(40):
            return complex(mpmath.zeta(mpmath.mpc(s), mpmath.mpf(args[0])))
    if kind == "barnes":
        w, a, b = args
        return barnes_zeta_hurwitz(s, F(w), F(a), F(b))
    a, b, conv = args
    reduction = {"interior": interior_zeta_hurwitz, "full": full_zeta_hurwitz, "distinct": distinct_zeta_hurwitz}
    return reduction[conv](s, F(a), F(b))


def pin_id(kind, s, args, *_):
    """The function, s and the arguments, so that a re-pin renames no test."""
    return "-".join(map(str, (kind, s, *args)))


@pytest.mark.parametrize("kind,s,args,pinned", [pytest.param(*pin[:4], id=pin_id(*pin)) for pin in PINNED])
def test_value_is_bit_identical(kind, s, args, pinned):
    assert repr(value(kind, s, args)) == pinned


# The recorded errors keep the pin rule's numbers: a re-pin may move a value, but
# not to three times its recorded error, or past 8 * 2^-53 where that is larger.
# E(1, 6765/4181) DISTINCT is skipped: its oracle sums 4181 Hurwitz values.
@pytest.mark.parametrize(
    "kind,s,args,recorded",
    [pytest.param(*pin[:3], pin[4], id=pin_id(*pin)) for pin in PINNED if pin[4] is not None],
)
def test_value_within_three_times_recorded_error(kind, s, args, recorded):
    ref = oracle(kind, s, args)
    assert abs(value(kind, s, args) - ref) <= max(3 * recorded, 8 * 2.0**-53) * abs(ref)


# Relative error of the pinned values at Re s < 0 against barnes_zeta_hurwitz and
# interior_zeta_hurwitz, rounded up: Barnes at w = 2 and w = 2/3 on E(2, 3), then
# INTERIOR and FULL on E(2, 3) and on E(3, 5). It grows as Re s falls, since the
# head and integral cancel from about xN^(2 - Re s) down to the value.
CANCELLATION_ERRORS = {
    -1.5: (1.4e-11, 2.1e-12, 5.3e-12, 1.3e-11, 4.3e-12, 3.2e-12),
    complex(-2.9, 0.5): (3.1e-9, 4.2e-9, 1.8e-9, 1.8e-9, 2.3e-9, 2.3e-9),
    complex(-3.9, 0.5): (1.9e-7, 1.4e-7, 1.5e-7, 2.1e-7, 3.1e-8, 9.7e-8),
}


@pytest.mark.parametrize("s", CANCELLATION_ERRORS, ids=str)
def test_cancellation_points_within_three_times_measured_error(s):
    cases = [("barnes", F(2), 2, 3), ("barnes", F(2, 3), 2, 3)]
    cases += [(conv, None, a, b) for a, b in ((2, 3), (3, 5)) for conv in ("interior", "full")]
    for (kind, w, a, b), measured in zip(cases, CANCELLATION_ERRORS[s]):
        if kind == "barnes":
            ref = barnes_zeta_hurwitz(s, w, F(a), F(b))
        else:
            ref = interior_zeta_hurwitz(s, F(a), F(b))
            if kind == "full":
                ref += (float(a) ** -s + float(b) ** -s) * complex(mpmath.zeta(s))
        for E in (Ellipsoid(a, b), Ellipsoid(b, a)):
            if kind == "barnes":
                got = barnes_zeta(s, float(w), E)
            else:
                got = ech_zeta(s, E, ZetaConvention(kind))
            assert abs(got - ref) <= 3 * measured * abs(ref), (kind, w, a, b)


# A seeded grid over the region where summation points repeat: 200 points with
# Re s in (-3.9, 8] and |Im s| <= 60, each ellipsoid's three conventions and
# Barnes value at w = min(a, b)/3, and its Laurent data at 0, 1 and 2. The hash
# of their reprs was taken before the kernel formed a shared point's powers once.
GRID_ELLIPSOIDS = [(1, 2), (2, 3), (F(1, 2), F(3, 2)), (F(3, 2), F(5, 7)), (1, F(832040, 514229))]
GRID_SHA256 = "b0ed7943cd647b719ea078f248410d459fa96aa5705b84feabf7466cbc245b9b"


def grid_reprs() -> list:
    rng = random.Random(36)
    points = [complex(-3.9 + 11.9 * rng.random(), rng.uniform(-60.0, 60.0)) for _ in range(200)]
    reprs = []
    for a, b in GRID_ELLIPSOIDS:
        E = Ellipsoid(a, b)
        for s in points:
            reprs += [repr(ech_zeta(s, E, conv)) for conv in ZetaConvention]
            reprs.append(repr(barnes_zeta(s, min(E.a, E.b) / 3, E)))
        reprs += [repr(ech_laurent_pair(s0, E)) for s0 in (0, 1, 2)]
    return reprs


def test_region_is_bit_identical():
    assert hashlib.sha256("\n".join(grid_reprs()).encode()).hexdigest() == GRID_SHA256
