algebra Q
tail kfree 3
