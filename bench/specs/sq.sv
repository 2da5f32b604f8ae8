algebra Q
tail kfree 2
