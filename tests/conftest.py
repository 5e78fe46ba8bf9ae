import json
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def frozen_bounds():
    return json.loads((DATA / "frozen_bounds.json").read_text())
