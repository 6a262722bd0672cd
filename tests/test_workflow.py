"""The CI workflow file parses, and every step in it is well formed."""

import pathlib

import yaml

WORKFLOW = pathlib.Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml"


def test_every_workflow_step_has_a_name_and_one_action():
    doc = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    steps = [step for job in doc["jobs"].values() for step in job["steps"]]
    assert steps
    for step in steps:
        assert isinstance(step.get("name"), str) and step["name"].strip(), step
        assert ("run" in step) != ("uses" in step), step["name"]
