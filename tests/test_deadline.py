import signal

import pytest

from conftest import TEST_DEADLINE_S


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="the deadline needs SIGALRM")
def test_a_test_past_its_deadline_fails_naming_itself(request):
    # the deadline fixture's timer is armed; shorten it and never finish
    assert 0 < signal.getitimer(signal.ITIMER_REAL)[0] <= TEST_DEADLINE_S
    signal.setitimer(signal.ITIMER_REAL, 0.05)
    with pytest.raises(pytest.fail.Exception) as info:
        while True:
            pass
    assert str(info.value) == f"{request.node.nodeid} ran past its {TEST_DEADLINE_S} s deadline"
