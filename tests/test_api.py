import servicecut


def test_every_exported_name_resolves():
    for name in servicecut.__all__:
        assert getattr(servicecut, name) is not None, name
