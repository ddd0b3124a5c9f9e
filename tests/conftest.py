import pytest

from vassiliev.basis import shared_basis


@pytest.fixture(scope="session")
def basis7():
    return shared_basis(7)


@pytest.fixture(scope="session")
def basis6():
    return shared_basis(6)


@pytest.fixture(scope="session")
def basis5():
    return shared_basis(5)


@pytest.fixture(scope="session")
def basis4():
    return shared_basis(4)
