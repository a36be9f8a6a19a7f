import contextlib
import functools
import importlib.util
import io
import sys
from pathlib import Path

import pytest

import bialgebra_forge as bf
from bialgebra_forge import ncpoly, rewrite, tensors
from bialgebra_forge.cli import main
from bialgebra_forge.scalars import Scalar


@functools.cache
def corrected_document():
    return bf.load_bundled("corrected")


@functools.cache
def context5():
    return corrected_document().make_context()


@functools.cache
def context3():
    return corrected_document().make_context(order=3)


@functools.cache
def presentation5():
    return corrected_document().build_presentation(context5())


@functools.cache
def presentation3():
    return corrected_document().build_presentation(context3())


@functools.cache
def diagonal5():
    return bf.specialize(presentation5(), {"z1": "z", "z2": "z"})


@functools.cache
def compositions5():
    doc = corrected_document()
    ctx = context5()
    return {
        name: doc.composition_tensor(name, ctx)
        for name in ("mu_100", "mu_001", "delta_010", "delta_001")
    }


@functools.cache
def widegen():
    """The benchmark's `wide` document generator, read from its file and
    left as it is."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "widegen.py"
    spec = importlib.util.spec_from_file_location("perfbench_widegen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def terms_through(poly, degree):
    """The terms of a word or tensor polynomial through parameter degree,
    keyed by (key, exponents)."""
    return {
        (k, e): c
        for k, coeff in poly.coefficients().items() for e, c in coeff.terms.items()
        if sum(e) <= degree
    }


def kernel_counts(argv):
    """Exit code of the CLI run argv, its rewrite steps (the bracket_poly
    lookups made by rewrite.normal_form_word itself) and its Scalar
    products (Scalar.__mul__ calls), counted apart: those made inside
    Document.build_presentation, which parses the document, and all the
    others, which the checks make. A Scalar product is one product of two
    Q(i) numbers, whatever holds the coefficients around it."""
    kernel = rewrite.normal_form_word.__code__
    lookup = rewrite.RelationTable.bracket_poly
    build = bf.Document.build_presentation
    steps = built = 0

    def counted_lookup(table, a, b):
        nonlocal steps
        if sys._getframe(1).f_code is kernel:
            steps += 1
        return lookup(table, a, b)

    with _counted(Scalar, "__mul__") as products:

        def counted_build(doc, context):
            nonlocal built
            before = products[0]
            presentation = build(doc, context)
            built += products[0] - before
            return presentation

        rewrite.RelationTable.bracket_poly = counted_lookup
        bf.Document.build_presentation = counted_build
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
        finally:
            rewrite.RelationTable.bracket_poly = lookup
            bf.Document.build_presentation = build
    return code, steps, built, products[0] - built


@contextlib.contextmanager
def _counted(owner, name):
    """Count the calls of owner.name while the block runs; yields a
    one-item list holding the count."""
    original = vars(owner)[name]
    count = [0]

    def counted(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    setattr(owner, name, counted)
    try:
        yield count
    finally:
        setattr(owner, name, original)


def call_counts(argv, module, *names):
    """Exit code of the CLI run argv and the calls it made of each named
    function of module, looked up by the module's own calls."""
    with contextlib.ExitStack() as stack:
        counts = [stack.enter_context(_counted(module, name)) for name in names]
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    return (code, *(count[0] for count in counts))


def build_work(doc, context):
    """The polynomial work of doc.build_presentation(context), as counts
    of its NCPoly.times calls (through * too), _Terms.scaled calls,
    ncpoly.outer calls (wherever a package module imported it) and
    Context constructions. The parser forms a product of single terms
    and a sum without any of these, so per-factor polynomial work shows
    in the counts."""
    holders = [
        module for name, module in list(sys.modules.items())
        if name.startswith("bialgebra_forge.") and vars(module).get("outer") is ncpoly.outer
    ]
    with contextlib.ExitStack() as stack:
        enter = stack.enter_context
        times = [enter(_counted(ncpoly._Terms, name)) for name in ("times", "__mul__")]
        scaled = enter(_counted(ncpoly._Terms, "scaled"))
        outers = [enter(_counted(module, "outer")) for module in holders]
        contexts = enter(_counted(ncpoly.Context, "__post_init__"))
        doc.build_presentation(context)
    return (sum(count[0] for count in times), scaled[0],
            sum(count[0] for count in outers), contexts[0])


def coefficient_products(fn, *args):
    """fn(*args) and the coefficient products that the Lie-data pass
    (tensors.lie_checks) made in it: its coefficient_product calls, one
    per term of the double's Jacobi sum that it forms."""
    with _counted(tensors, "coefficient_product") as products:
        result = fn(*args)
    return result, products[0]


def rewrite_steps(argv):
    """Exit code of the CLI run argv, and its rewrite steps (kernel_counts)."""
    code, steps, *_ = kernel_counts(argv)
    return code, steps


@pytest.fixture(scope="session")
def doc():
    return corrected_document()


@pytest.fixture(scope="session")
def ctx():
    return context5()


@pytest.fixture(scope="session")
def presentation():
    return presentation5()


@pytest.fixture(scope="session")
def diagonal():
    return diagonal5()


@pytest.fixture(scope="session")
def comps():
    return compositions5()
