"""`write_gallery` output is pinned byte for byte: the sha256 of the text
for the Moebius gallery and for `compile_surface(n, orientable)`, n = 2..8
in both families.  A change to layout, gadgets, polygon validation or the
file format that moves one byte fails here."""

import hashlib

import pytest

from topogallery.complexes import complex_to_dnf, mobius_complex
from topogallery.compiler import compile_gallery, compile_surface
from topogallery.files import write_gallery
from topogallery.formulas import dnf_to_cnf, simplify_cnf

MOBIUS = "efe3cadfe209ea7e56421e228f5a0dea81e21818d9c32cb1168cc1174a43276b"

SURFACES = {
    (2, True): "02b2a5c02c115a65016f0b7ff1e52fe1b261a5d18d57ee06374fe086a6e96650",
    (3, True): "37f8dc9d59fe98ec8f64a6ec118383bdf9f343780c3093adabeac7ee7f1fbead",
    (4, True): "9adc5d94f12b530fac7870c98efadd145c2c237e4c9a651c7e5832780cbf602b",
    (5, True): "5c56a21e9aafcc13c51639f60eafb234864c8a945a1ae2127e24955c417825d0",
    (6, True): "01b24bd60fdcdb4a11e4312b8576ca53aa48b77a33498be672ac3b5dace94d72",
    (7, True): "2bcdb483fcb6ec20d85c0e64bd20c0113e8f92f6c6e183bd8efc6e455deea50d",
    (8, True): "6c6b255f1ca84771309bbcfabf200606926499e298e980b94e1869d0c5de0f76",
    (2, False): "f21509c089ce5f55cc6e968b386b61b5ea42ead82b10fadb272591601c15e318",
    (3, False): "bf2b5a408930ce3ef48336910c25e9ba47fd6d4ef9d5d8828cd9cb3962d8ea7b",
    (4, False): "1f102307de54477cf112e4e6324c7feca15f6aa2c3b69c336f9a1cdfa687f636",
    (5, False): "de60a2becd4ff29f8f6fafd71408a16280b1e2b92fec451ae632a2779167c47d",
    (6, False): "46dc7612a8cdc15925fe609666a609ce64c063232990ea55290deffdba61500b",
    (7, False): "12cfc1054c683de553fd2bae8750559f379e7703592a1fe94f28edba169f608e",
    (8, False): "9e084e512f574e713bbcb70a485736680bed241f48282d7a0f26075de864982e",
}


def _digest(g) -> str:
    return hashlib.sha256(write_gallery(g).encode("utf-8")).hexdigest()


def test_mobius_gallery_bytes():
    k = mobius_complex()
    assert _digest(compile_gallery(
        simplify_cnf(dnf_to_cnf(complex_to_dnf(k))))) == MOBIUS


@pytest.mark.parametrize("n, orientable", list(SURFACES),
                         ids=[f"{'o' if o else 'n'}{n}" for n, o in SURFACES])
def test_surface_gallery_bytes(n, orientable):
    assert _digest(compile_surface(n, orientable)) == SURFACES[n, orientable]
