"""One equivalence harness, anchored on the paper's calculus.

* :mod:`equivalence.generator` -- seeded corpora and queries over the whole
  surface grammar (importable by any suite that needs them);
* :mod:`equivalence.shapes` -- the product shapes a query can run on;
* :mod:`equivalence.cases` -- the memoised calculus answer per (corpus, query);
* ``test_*.py`` -- every shape and every engine against that answer, one
  test per query.
"""
