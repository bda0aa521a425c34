"""The package's public surface: ``__all__`` and the names it binds agree."""

import inspect

import pointspec


def test_every_exported_name_resolves():
    namespace = {}
    exec("from pointspec import *", namespace)  # AttributeError on a stale name
    assert set(pointspec.__all__) <= set(namespace)


def test_all_lists_every_public_function_and_class():
    bound = {name for name, value in vars(pointspec).items()
             if not name.startswith("_")
             and (inspect.isfunction(value) or inspect.isclass(value))}
    assert bound <= set(pointspec.__all__)
    assert len(pointspec.__all__) == len(set(pointspec.__all__))
